package serve

import "onepipe/internal/workload"

// nextOps draws session s's next request into dst (see room: a request
// that does not fit takes a slab). Every draw comes from the session's own
// SplitMix64 stream; the Zipf table is shared and stateless (FromU), so a
// million sessions share one table.
func (t *Tier) nextOps(s *session, dst []workload.Op) []workload.Op {
	if s.gen != nil {
		// Copied: split reorders the ops, and the list is the caller's.
		src := s.gen.Next()
		return append(room(dst, len(src)), src...)
	}
	if t.Cfg.Service == Txn {
		return t.txnMix(s, dst)
	}
	// SMR commands reuse the KV request shape; replicas apply them to the
	// replicated machine.
	return t.kvOps(s, dst)
}

func (t *Tier) key(s *session) uint64 {
	return t.zipf.FromU(workload.SplitMixFloat(&s.rng))
}

// valueSize draws a small-skewed write size (2–512 B) — the cheap stand-in
// for the ETC tail, kept rng-state-only for session scale.
func valueSize(s *session) int {
	return 2 + int(workload.SplitMix64(&s.rng)%511)
}

// kvOps emits a get/put/scan request: with probability scanFrac one scan of
// scanLen consecutive keys, otherwise opsPerReq point ops, each a put with
// probability writeFrac.
func (t *Tier) kvOps(s *session, dst []workload.Op) []workload.Op {
	if workload.SplitMixFloat(&s.rng) < scanFrac {
		base := t.key(s)
		ops := room(dst, scanLen)
		for i := 0; i < scanLen; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpRead, Key: (base + uint64(i)) % t.Cfg.Keys})
		}
		return ops
	}
	ops := room(dst, opsPerReq)
	for len(ops) < opsPerReq {
		k := t.key(s)
		dup := false
		for _, op := range ops {
			if op.Key == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		op := workload.Op{Kind: workload.OpRead, Key: k}
		if workload.SplitMixFloat(&s.rng) < writeFrac {
			op.Kind = workload.OpWrite
			op.Value = valueSize(s)
		}
		ops = append(ops, op)
	}
	return ops
}

// txnMix emits the tpcc-style transaction mix (shapes scaled to the
// simulated keyspace: reads and writes across warehouse/district/stock
// keys stand in for the full relational rows).
func (t *Tier) txnMix(s *session, dst []workload.Op) []workload.Op {
	u := workload.SplitMixFloat(&s.rng)
	var reads, writes int
	switch {
	case u < 0.45: // new-order: read stock, insert order lines
		reads, writes = 2, 6
	case u < 0.88: // payment: read customer, update balances
		reads, writes = 1, 3
	case u < 0.92: // order-status: read-only
		reads, writes = 4, 0
	case u < 0.96: // delivery: batch of updates
		reads, writes = 0, 8
	default: // stock-level: wide read
		reads, writes = 12, 0
	}
	ops := room(dst, reads+writes)
	for i := 0; i < reads; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpRead, Key: t.key(s)})
	}
	for i := 0; i < writes; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: t.key(s), Value: valueSize(s)})
	}
	return ops
}
