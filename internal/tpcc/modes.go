package tpcc

import (
	"sort"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/workload"
)

// Message payloads.
type cmdMsg struct {
	t   *txn
	ops []workload.Op
}
type cmdReply struct{ t *txn }

// snapReq reads one warehouse's hot-row version for a snapshot.
type snapReq struct {
	t     *txn
	shard int
	key   uint64
}
type snapReply struct {
	t       *txn
	shard   int
	version uint64
}

type lockReq struct {
	t    *txn
	keys []uint64
}
type lockGranted struct{ t *txn }

type execReq struct {
	t      *txn
	ops    []workload.Op
	unlock []uint64
	async  bool // NonTX: do not wait for backups
	shard  int
}
type replReq struct {
	t     *txn
	ops   []workload.Op
	shard int
	from  netsim.ProcID
}
type replAck struct {
	t     *txn
	shard int
}

type occRead struct {
	t    *txn
	keys []uint64
}
type occReadReply struct {
	t        *txn
	keys     []uint64
	versions []uint64
	locked   bool
}
type occLock struct {
	t        *txn
	keys     []uint64
	versions []uint64
}
type occLockReply struct {
	t  *txn
	ok bool
}
type occUnlock struct {
	t    *txn
	keys []uint64
}

// primary returns the current primary of a shard.
func (b *Bench) primary(shard int) netsim.ProcID { return b.replicaSets[shard][0] }

// ----- 1Pipe (Eris-style) -----

// issue1Pipe sends the transaction to every replica of every involved
// shard in one reliable scattering: the 1Pipe timestamp is the transaction
// sequence number, so replicas apply in a consistent order and the
// transaction commits in one round trip.
func (n *node) issue1Pipe(t *txn) {
	if t.kind == txSnapshot {
		// Best-effort scattering to one replica per shard: total order
		// serializes the snapshot against all writes, giving a
		// consistent cut in one round trip (the read-only DAO of
		// §2.2.3 extended to snapshots).
		var msgs []core.Message
		t.pending = len(t.shards)
		t.snapshot = make([]uint64, warehouses)
		for _, so := range t.shards {
			msgs = append(msgs, core.Message{
				Dst:  n.b.primary(so.Shard),
				Data: snapReq{t: t, shard: so.Shard, key: so.Ops[0].Key},
				Size: 16,
			})
		}
		if err := n.proc.Send(msgs); err != nil {
			n.retryLater(t)
			return
		}
		t.retry.Reset(retryTimeout)
		return
	}
	var msgs []core.Message
	for _, so := range t.shards {
		size := 32 * len(so.Ops)
		for _, r := range n.b.replicaSets[so.Shard] {
			msgs = append(msgs, core.Message{Dst: r, Data: cmdMsg{t: t, ops: so.Ops}, Size: size})
		}
	}
	if len(msgs) == 0 {
		n.finish(t, true)
		return
	}
	t.pending = len(msgs)
	if err := n.proc.SendOpts(msgs, core.SendOptions{Reliable: true}); err != nil {
		// A replica failed since generation: replica sets were already
		// pruned by the failure callback; retry.
		n.retryLater(t)
		return
	}
	t.retry.Reset(retryTimeout)
}

// onDeliver applies 1Pipe-ordered transaction commands at replicas.
func (n *node) onDeliver(d core.Delivery) {
	switch m := d.Data.(type) {
	case snapReq:
		n.serve(1, func() {
			var v uint64
			if r := n.data[m.key]; r != nil {
				v = r.version
			}
			n.proc.SendRaw(d.Src, snapReply{t: m.t, shard: m.shard, version: v}, 16)
		})
	case cmdMsg:
		if n.applied[m.t] {
			n.proc.SendRaw(d.Src, cmdReply{t: m.t}, 8)
			return
		}
		n.applied[m.t] = true
		n.serve(len(m.ops), func() {
			n.applyOps(m.ops)
			n.proc.SendRaw(d.Src, cmdReply{t: m.t}, 8)
		})
	}
}

// ----- Lock (2PL + primary-backup) -----

// issueLock acquires exclusive locks shard by shard in ascending shard
// order (deadlock freedom), then executes and replicates.
func (n *node) issueLock(t *txn) {
	sort.Slice(t.shards, func(i, j int) bool { return t.shards[i].Shard < t.shards[j].Shard })
	t.phase = 1
	t.lockIdx = 0
	n.lockNextShard(t)
	t.retry.Reset(retryTimeout)
}

func (n *node) lockNextShard(t *txn) {
	if t.lockIdx >= len(t.shards) {
		// All locks held: execute + replicate on every shard.
		t.phase = 2
		t.pending = len(t.shards)
		for _, so := range t.shards {
			n.proc.SendRaw(n.b.primary(so.Shard), execReq{
				t: t, ops: so.Ops, unlock: opKeys(so.Ops), shard: so.Shard,
			}, 32*len(so.Ops))
		}
		return
	}
	so := t.shards[t.lockIdx]
	n.proc.SendRaw(n.b.primary(so.Shard), lockReq{t: t, keys: opKeys(so.Ops)}, 16*len(so.Ops))
}

func opKeys(ops []workload.Op) []uint64 {
	keys := make([]uint64, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	return keys
}

// onLockReq grants all-or-waits: if every key is free the whole set locks;
// otherwise the request queues FIFO on the first busy key.
func (n *node) onLockReq(src netsim.ProcID, m lockReq) {
	n.serve(len(m.keys), func() { n.tryGrant(&lockWait{t: m.t, src: src, keys: m.keys}) })
}

func (n *node) tryGrant(w *lockWait) {
	for _, k := range w.keys {
		r := n.rec(k)
		if r.lockedBy != nil && r.lockedBy != w.t {
			n.waiters[k] = append(n.waiters[k], w)
			return
		}
	}
	for _, k := range w.keys {
		n.rec(k).lockedBy = w.t
	}
	n.proc.SendRaw(w.src, lockGranted{t: w.t}, 8)
}

func (n *node) rec(k uint64) *record {
	r := n.data[k]
	if r == nil {
		r = &record{}
		n.data[k] = r
	}
	return r
}

// unlockKeys releases locks and re-attempts waiting acquisitions.
func (n *node) unlockKeys(t *txn, keys []uint64) {
	var retry []*lockWait
	for _, k := range keys {
		r := n.rec(k)
		if r.lockedBy == t {
			r.lockedBy = nil
		}
		if ws := n.waiters[k]; len(ws) > 0 {
			retry = append(retry, ws...)
			delete(n.waiters, k)
		}
	}
	for _, w := range retry {
		n.tryGrant(w)
	}
}

// onExecReq applies at the primary, replicates to backups, and (unless
// async) replies after all backups acknowledge.
func (n *node) onExecReq(src netsim.ProcID, m execReq) {
	n.serve(len(m.ops), func() {
		n.applyOps(m.ops)
		backups := n.b.replicaSets[m.shard][1:]
		if m.async || len(backups) == 0 {
			n.unlockKeys(m.t, m.unlock)
			n.proc.SendRaw(src, cmdReply{t: m.t}, 8)
			for _, bk := range backups {
				n.proc.SendRaw(bk, replReq{t: m.t, ops: m.ops, shard: m.shard, from: n.proc.ID}, 32*len(m.ops))
			}
			return
		}
		st := &replState{src: src, t: m.t, unlock: m.unlock, waiting: len(backups)}
		n.replWait[m.t] = st
		for _, bk := range backups {
			n.proc.SendRaw(bk, replReq{t: m.t, ops: m.ops, shard: m.shard, from: n.proc.ID}, 32*len(m.ops))
		}
	})
}

func (n *node) onReplReq(m replReq) {
	n.serve(len(m.ops), func() {
		n.applyOps(m.ops)
		n.proc.SendRaw(m.from, replAck{t: m.t, shard: m.shard}, 8)
	})
}

func (n *node) onReplAck(m replAck) {
	st := n.replWait[m.t]
	if st == nil {
		return
	}
	st.waiting--
	if st.waiting > 0 {
		return
	}
	delete(n.replWait, m.t)
	n.unlockKeys(st.t, st.unlock)
	n.proc.SendRaw(st.src, cmdReply{t: st.t}, 8)
}

// ----- OCC -----

const (
	occPhaseRead     = 1
	occPhaseLock     = 2
	occPhaseValidate = 3
	occPhaseCommit   = 4
)

func (n *node) issueOCC(t *txn) {
	t.versions = make(map[uint64]uint64)
	t.phase = occPhaseRead
	t.pending = len(t.shards)
	for _, so := range t.shards {
		n.proc.SendRaw(n.b.primary(so.Shard), occRead{t: t, keys: opKeys(so.Ops)}, 16*len(so.Ops))
	}
	t.retry.Reset(retryTimeout)
}

func (n *node) occWriteKeys(t *txn) [][]uint64 {
	sets := make([][]uint64, len(t.shards))
	for i, so := range t.shards {
		for _, op := range so.Ops {
			if op.Kind == workload.OpWrite {
				sets[i] = append(sets[i], op.Key)
			}
		}
	}
	return sets
}

func (n *node) occAbort(t *txn) {
	for i, so := range t.shards {
		keys := n.occWriteKeys(t)[i]
		if len(keys) > 0 {
			n.proc.SendRaw(n.b.primary(so.Shard), occUnlock{t: t, keys: keys}, 8*len(keys))
		}
	}
	n.retryLater(t)
}

func (n *node) onOccRead(src netsim.ProcID, m occRead) {
	n.serve(len(m.keys), func() {
		versions := make([]uint64, len(m.keys))
		locked := false
		for i, k := range m.keys {
			if r := n.data[k]; r != nil {
				versions[i] = r.version
				if r.lockedBy != nil && r.lockedBy != m.t {
					locked = true
				}
			}
		}
		n.proc.SendRaw(src, occReadReply{t: m.t, keys: m.keys, versions: versions, locked: locked}, 16*len(m.keys))
	})
}

func (n *node) onOccLock(src netsim.ProcID, m occLock) {
	n.serve(len(m.keys), func() {
		ok := true
		for i, k := range m.keys {
			r := n.rec(k)
			if (r.lockedBy != nil && r.lockedBy != m.t) || r.version != m.versions[i] {
				ok = false
				break
			}
		}
		if ok {
			for _, k := range m.keys {
				n.rec(k).lockedBy = m.t
			}
		}
		n.proc.SendRaw(src, occLockReply{t: m.t, ok: ok}, 8)
	})
}

func (n *node) onOccUnlock(m occUnlock) {
	n.serve(len(m.keys), func() { n.unlockKeys(m.t, m.keys) })
}

// ----- NonTX -----

func (n *node) issueNonTX(t *txn) {
	if t.kind == txSnapshot {
		t.pending = len(t.shards)
		t.snapshot = make([]uint64, warehouses)
		for _, so := range t.shards {
			n.proc.SendRaw(n.b.primary(so.Shard), snapReq{t: t, shard: so.Shard, key: so.Ops[0].Key}, 16)
		}
		t.retry.Reset(retryTimeout)
		return
	}
	t.pending = len(t.shards)
	for _, so := range t.shards {
		n.proc.SendRaw(n.b.primary(so.Shard), execReq{
			t: t, ops: so.Ops, async: true, shard: so.Shard,
		}, 32*len(so.Ops))
	}
	t.retry.Reset(retryTimeout)
}

// ----- client-side reply dispatch -----

func (n *node) onRaw(src netsim.ProcID, data any) {
	switch m := data.(type) {
	case snapReq:
		// NonTX snapshots read without ordering.
		n.serve(1, func() {
			var v uint64
			if r := n.data[m.key]; r != nil {
				v = r.version
			}
			n.proc.SendRaw(src, snapReply{t: m.t, shard: m.shard, version: v}, 16)
		})
	case snapReply:
		t := m.t
		if t.client != n || t.snapshot == nil {
			return
		}
		t.snapshot[m.shard] = m.version
		t.pending--
		if t.pending == 0 {
			if n.b.OnSnapshot != nil {
				n.b.OnSnapshot(append([]uint64(nil), t.snapshot...))
			}
			n.finish(t, true)
		}
	case cmdReply:
		t := m.t
		if t.client != n {
			return
		}
		t.pending--
		if t.pending == 0 {
			n.finish(t, true)
		}
	case lockReq:
		n.onLockReq(src, m)
	case lockGranted:
		t := m.t
		if t.client != n || t.phase != 1 {
			return
		}
		t.lockIdx++
		n.lockNextShard(t)
	case execReq:
		n.onExecReq(src, m)
	case replReq:
		n.onReplReq(m)
	case replAck:
		n.onReplAck(m)
	case occRead:
		n.onOccRead(src, m)
	case occLock:
		n.onOccLock(src, m)
	case occUnlock:
		n.onOccUnlock(m)
	case occReadReply:
		n.onOccReadReply(m)
	case occLockReply:
		n.onOccLockReply(m)
	}
}

func (n *node) onOccReadReply(m occReadReply) {
	t := m.t
	if t.client != n {
		return
	}
	if m.locked {
		t.failed = true
	}
	switch t.phase {
	case occPhaseRead:
		for i, k := range m.keys {
			t.versions[k] = m.versions[i]
		}
	case occPhaseValidate:
		for i, k := range m.keys {
			if t.versions[k] != m.versions[i] {
				t.failed = true
			}
		}
	default:
		return
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	if t.failed {
		if t.phase == occPhaseValidate {
			n.occAbort(t)
		} else {
			n.retryLater(t)
		}
		return
	}
	if t.phase == occPhaseRead {
		// Lock the write sets.
		t.phase = occPhaseLock
		sets := n.occWriteKeys(t)
		t.pending = 0
		for i, so := range t.shards {
			if len(sets[i]) == 0 {
				continue
			}
			t.pending++
			versions := make([]uint64, len(sets[i]))
			for j, k := range sets[i] {
				versions[j] = t.versions[k]
			}
			n.proc.SendRaw(n.b.primary(so.Shard), occLock{t: t, keys: sets[i], versions: versions}, 24*len(sets[i]))
		}
		if t.pending == 0 { // read-only: done after version read
			n.finish(t, true)
		}
		return
	}
	// Validate passed: commit.
	n.occCommit(t)
}

func (n *node) onOccLockReply(m occLockReply) {
	t := m.t
	if t.client != n || t.phase != occPhaseLock {
		return
	}
	if !m.ok {
		t.failed = true
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	if t.failed {
		n.occAbort(t)
		return
	}
	// Validate the read set (keys not written).
	readKeys := n.occReadOnlyKeys(t)
	if len(readKeys) == 0 {
		n.occCommit(t)
		return
	}
	t.phase = occPhaseValidate
	t.failed = false
	t.pending = 0
	for i, so := range t.shards {
		if len(readKeys[i]) == 0 {
			continue
		}
		t.pending++
		n.proc.SendRaw(n.b.primary(so.Shard), occRead{t: t, keys: readKeys[i]}, 16*len(readKeys[i]))
	}
	if t.pending == 0 {
		n.occCommit(t)
	}
}

func (n *node) occReadOnlyKeys(t *txn) [][]uint64 {
	sets := make([][]uint64, len(t.shards))
	any := false
	for i, so := range t.shards {
		for _, op := range so.Ops {
			if op.Kind == workload.OpRead {
				sets[i] = append(sets[i], op.Key)
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return sets
}

func (n *node) occCommit(t *txn) {
	t.phase = occPhaseCommit
	t.pending = 0
	sets := n.occWriteKeys(t)
	for i, so := range t.shards {
		var writes []workload.Op
		for _, op := range so.Ops {
			if op.Kind == workload.OpWrite {
				writes = append(writes, op)
			}
		}
		if len(writes) == 0 {
			continue
		}
		t.pending++
		n.proc.SendRaw(n.b.primary(so.Shard), execReq{
			t: t, ops: writes, unlock: sets[i], shard: so.Shard,
		}, 32*len(writes))
	}
	if t.pending == 0 {
		n.finish(t, true)
	}
}
