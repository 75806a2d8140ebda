package main

import "onepipe"

// LockCmd requests or releases a resource.
type LockCmd struct {
	Resource string
	Owner    onepipe.ProcID
	Release  bool
}

// GrantEvent records one grant decision, for verifying cross-replica
// agreement.
type GrantEvent struct {
	Resource string
	Owner    onepipe.ProcID
	TS       onepipe.Timestamp
}

// LockManager is a replicated lock table: requests queue FIFO in total
// order; releases grant to the next waiter. Every replica computes the
// identical grant sequence.
type LockManager struct {
	holders map[string]onepipe.ProcID
	waiters map[string][]onepipe.ProcID
	// Grants is the grant log (identical on all correct replicas).
	Grants []GrantEvent
	// OnGrant, if set, observes each grant as it happens.
	OnGrant func(GrantEvent)
}

// NewLockManager builds an empty lock table.
func NewLockManager() *LockManager {
	return &LockManager{
		holders: make(map[string]onepipe.ProcID),
		waiters: make(map[string][]onepipe.ProcID),
	}
}

// Apply executes one delivered command; d.TS is its position in the total
// order.
func (lm *LockManager) Apply(d onepipe.Delivery) {
	c, ok := d.Data.(LockCmd)
	if !ok {
		return
	}
	if c.Release {
		if lm.holders[c.Resource] != c.Owner {
			return // stale release
		}
		delete(lm.holders, c.Resource)
		if q := lm.waiters[c.Resource]; len(q) > 0 {
			next := q[0]
			lm.waiters[c.Resource] = q[1:]
			lm.grant(c.Resource, next, d.TS)
		}
		return
	}
	if _, held := lm.holders[c.Resource]; held {
		lm.waiters[c.Resource] = append(lm.waiters[c.Resource], c.Owner)
		return
	}
	lm.grant(c.Resource, c.Owner, d.TS)
}

func (lm *LockManager) grant(res string, owner onepipe.ProcID, ts onepipe.Timestamp) {
	lm.holders[res] = owner
	ev := GrantEvent{Resource: res, Owner: owner, TS: ts}
	lm.Grants = append(lm.Grants, ev)
	if lm.OnGrant != nil {
		lm.OnGrant(ev)
	}
}

// Holder returns the current holder of a resource.
func (lm *LockManager) Holder(res string) (onepipe.ProcID, bool) {
	h, ok := lm.holders[res]
	return h, ok
}

// replicate deploys one lock table on each replica process, fed by the
// fabric's delivery order, and returns them with the submit function: one
// command is one reliable scattering from process src to every replica, so
// restricted failure atomicity gives all correct replicas the same command
// sequence (§2.1).
func replicate(cluster *onepipe.Cluster, replicas []onepipe.ProcID) ([]*LockManager, func(src onepipe.ProcID, cmd LockCmd) error) {
	lms := make([]*LockManager, len(replicas))
	for i, r := range replicas {
		lms[i] = NewLockManager()
		cluster.Process(int(r)).OnDeliver(lms[i].Apply)
	}
	submit := func(src onepipe.ProcID, cmd LockCmd) error {
		msgs := make([]onepipe.Message, len(replicas))
		for i, r := range replicas {
			msgs[i] = onepipe.Message{Dst: r, Data: cmd, Size: 16}
		}
		return cluster.Process(int(src)).Send(msgs, onepipe.Reliable())
	}
	return lms, submit
}
