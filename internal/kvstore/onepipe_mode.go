package kvstore

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/workload"
)

// issue1Pipe sends the whole transaction as one scattering: best-effort
// for read-only (§2.2.3: retryable), reliable otherwise. Owners process
// deliveries in timestamp order, so no locks are needed and no aborts
// occur.
func (n *node) issue1Pipe(t *txn) {
	buckets := n.st.bucketOps(t.ops)
	msgs := make([]core.Message, 0, len(buckets))
	for _, b := range buckets {
		size := 16 * len(b.ops)
		for _, op := range b.ops {
			size += op.Value
		}
		msgs = append(msgs, core.Message{Dst: b.owner, Data: kvReq{t: t, ops: b.ops}, Size: size})
	}
	t.pending = len(msgs)
	// Read-only transactions ride best-effort scatterings; writes need the
	// reliable plane's restricted failure atomicity.
	err := n.proc.SendOpts(msgs, core.SendOptions{Reliable: t.class != RO})
	if err != nil {
		// Send buffer full: back off and retry.
		n.retryLater(t)
		return
	}
	t.retry.Reset(retryTimeout)
}

// onDeliver handles 1Pipe-ordered transaction operations at an owner.
func (n *node) onDeliver(d core.Delivery) {
	req, ok := d.Data.(kvReq)
	if !ok {
		return
	}
	n.applyAndReply(d.Src, req.t, req.ops)
}

// applyAndReply executes ops after the CPU station and replies raw.
func (n *node) applyAndReply(src netsim.ProcID, t *txn, ops []workload.Op) {
	if n.applied[t] {
		// Duplicate (replay after a lost reply): just re-reply.
		n.serve(0, func() {
			n.proc.SendRaw(src, kvReply{t: t, n: len(ops)}, 16)
		})
		return
	}
	n.applied[t] = true
	n.serve(len(ops), func() {
		for _, op := range ops {
			n.apply(op)
		}
		n.proc.SendRaw(src, kvReply{t: t, n: len(ops)}, 16)
	})
}

func (n *node) apply(op workload.Op) {
	e := n.data[op.Key]
	if e == nil {
		e = &entry{}
		n.data[op.Key] = e
	}
	if op.Kind == workload.OpWrite {
		e.version++
	}
}

// onRaw dispatches unordered RPCs (replies and FaRM/NonTX requests).
func (n *node) onRaw(src netsim.ProcID, data any) {
	switch m := data.(type) {
	case kvReply:
		t := m.t
		if t.client != n {
			return
		}
		t.pending--
		if t.pending == 0 {
			n.finish(t, true)
		}
	case replay:
		// 1Pipe replay: for best-effort ops, re-execute idempotently; for
		// reliable ones, only re-reply if already applied (delivery is
		// 1Pipe's job).
		t := m.t
		if t.class == RO || n.applied[t] {
			var ops []workload.Op
			for _, op := range t.ops {
				if n.st.owner(op.Key) == n.proc.ID {
					ops = append(ops, op)
				}
			}
			n.applyAndReply(src, t, ops)
		}
	case nontxReq:
		n.onNonTXReq(src, m)
	case farmRead:
		n.onFarmRead(src, m)
	case farmLock:
		n.onFarmLock(src, m)
	case farmCommit:
		n.onFarmCommit(src, m)
	case farmUnlock:
		n.onFarmUnlock(m)
	case farmReadReply, farmLockReply:
		n.onFarmClientReply(data)
	}
}
