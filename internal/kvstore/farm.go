package kvstore

import (
	"onepipe/internal/netsim"
	"onepipe/internal/workload"
)

// FaRM phases (client side).
const (
	farmPhaseExecute  = 1 // read versions of the whole footprint
	farmPhaseLock     = 2 // lock the write set (with version check)
	farmPhaseValidate = 3 // re-read the read set
	farmPhaseCommit   = 4 // apply writes and unlock
)

// issueFaRM starts the FaRM OCC state machine for t. Read-only
// transactions finish after one versioned-read round trip; write
// transactions run lock / (validate) / commit+unlock, aborting on any
// conflict.
func (n *node) issueFaRM(t *txn) {
	t.versions = make(map[uint64]uint64)
	t.failed = false
	switch t.class {
	case RO, WR:
		t.phase = farmPhaseExecute
		n.farmReadRound(t, t.keySet(nil))
	case WO:
		// Blind writes skip the execute phase.
		t.phase = farmPhaseLock
		n.farmLockRound(t)
	}
	t.retry.Reset(retryTimeout)
}

// keySet returns t's keys filtered by kind (nil = all).
func (t *txn) keySet(kind *workload.OpKind) []uint64 {
	var out []uint64
	for _, op := range t.ops {
		if kind == nil || op.Kind == *kind {
			out = append(out, op.Key)
		}
	}
	return out
}

func (t *txn) writeOps() []workload.Op {
	var out []workload.Op
	for _, op := range t.ops {
		if op.Kind == workload.OpWrite {
			out = append(out, op)
		}
	}
	return out
}

// farmReadRound issues one versioned-read round for the given keys.
func (n *node) farmReadRound(t *txn, keys []uint64) {
	buckets := n.st.bucketKeys(keys)
	t.pending = len(buckets)
	for _, b := range buckets {
		n.proc.SendRaw(b.owner, farmRead{t: t, keys: b.keys}, 16*len(b.keys))
	}
}

// farmLockRound locks the write set, checking versions recorded during
// execute (blind for write-only transactions).
func (n *node) farmLockRound(t *txn) {
	w := workload.OpWrite
	buckets := n.st.bucketKeys(t.keySet(&w))
	t.pending = len(buckets)
	blind := t.class == WO
	for _, b := range buckets {
		versions := make([]uint64, len(b.keys))
		if !blind {
			for i, k := range b.keys {
				versions[i] = t.versions[k]
			}
		}
		n.proc.SendRaw(b.owner, farmLock{t: t, keys: b.keys, versions: versions, blind: blind}, 24*len(b.keys))
	}
}

// farmCommitRound applies writes and unlocks (one message per owner).
func (n *node) farmCommitRound(t *txn) {
	buckets := n.st.bucketOps(t.writeOps())
	t.pending = len(buckets)
	for _, b := range buckets {
		size := 0
		for _, op := range b.ops {
			size += 16 + op.Value
		}
		n.proc.SendRaw(b.owner, farmCommit{t: t, ops: b.ops}, size)
	}
}

// farmAbort releases any locks and schedules a retry.
func (n *node) farmAbort(t *txn) {
	w := workload.OpWrite
	for _, b := range n.st.bucketKeys(t.keySet(&w)) {
		n.proc.SendRaw(b.owner, farmUnlock{t: t, keys: b.keys}, 8*len(b.keys))
	}
	n.retryLater(t)
}

// onFarmRead serves a versioned read.
func (n *node) onFarmRead(src netsim.ProcID, m farmRead) {
	n.serve(len(m.keys), func() {
		versions := make([]uint64, len(m.keys))
		locked := false
		for i, k := range m.keys {
			if e := n.data[k]; e != nil {
				versions[i] = e.version
				if e.lockedBy != nil && e.lockedBy != m.t {
					locked = true
				}
			}
		}
		n.proc.SendRaw(src, farmReadReply{t: m.t, keys: m.keys, versions: versions, locked: locked}, 16*len(m.keys))
	})
}

// onFarmLock attempts to lock all keys atomically at this owner.
func (n *node) onFarmLock(src netsim.ProcID, m farmLock) {
	n.serve(len(m.keys), func() {
		ok := true
		for i, k := range m.keys {
			e := n.data[k]
			if e == nil {
				e = &entry{}
				n.data[k] = e
			}
			if e.lockedBy != nil && e.lockedBy != m.t {
				ok = false
				break
			}
			if !m.blind && e.version != m.versions[i] {
				ok = false
				break
			}
		}
		if ok {
			for _, k := range m.keys {
				n.data[k].lockedBy = m.t
			}
		}
		n.proc.SendRaw(src, farmLockReply{t: m.t, ok: ok}, 8)
	})
}

// onFarmCommit applies the writes and releases the locks.
func (n *node) onFarmCommit(src netsim.ProcID, m farmCommit) {
	n.serve(len(m.ops), func() {
		for _, op := range m.ops {
			e := n.data[op.Key]
			if e == nil {
				e = &entry{}
				n.data[op.Key] = e
			}
			e.version++
			if e.lockedBy == m.t {
				e.lockedBy = nil
			}
		}
		n.proc.SendRaw(src, kvReply{t: m.t, n: len(m.ops)}, 8)
	})
}

// onFarmUnlock releases this transaction's locks (abort path).
func (n *node) onFarmUnlock(m farmUnlock) {
	n.serve(len(m.keys), func() {
		for _, k := range m.keys {
			if e := n.data[k]; e != nil && e.lockedBy == m.t {
				e.lockedBy = nil
			}
		}
	})
}

// onFarmClientReply advances the client-side OCC state machine.
func (n *node) onFarmClientReply(data any) {
	switch m := data.(type) {
	case farmReadReply:
		t := m.t
		if t.client != n {
			return
		}
		if m.locked {
			t.failed = true
		}
		switch t.phase {
		case farmPhaseExecute:
			for i, k := range m.keys {
				t.versions[k] = m.versions[i]
			}
		case farmPhaseValidate:
			for i, k := range m.keys {
				if t.versions[k] != m.versions[i] {
					t.failed = true
				}
			}
		}
		t.pending--
		if t.pending > 0 {
			return
		}
		switch {
		case t.failed:
			if t.phase == farmPhaseValidate {
				n.farmAbort(t)
			} else {
				n.retryLater(t)
			}
		case t.class == RO:
			n.finish(t, true)
		case t.phase == farmPhaseExecute:
			t.phase = farmPhaseLock
			n.farmLockRound(t)
		case t.phase == farmPhaseValidate:
			t.phase = farmPhaseCommit
			n.farmCommitRound(t)
		}
	case farmLockReply:
		t := m.t
		if t.client != n {
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
			n.farmAbort(t)
			return
		}
		r := workload.OpRead
		readSet := t.keySet(&r)
		if t.class == WR && len(readSet) > 0 {
			t.phase = farmPhaseValidate
			t.failed = false
			n.farmReadRound(t, readSet)
		} else {
			t.phase = farmPhaseCommit
			n.farmCommitRound(t)
		}
	}
}
