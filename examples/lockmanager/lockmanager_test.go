package main

import (
	"testing"

	"onepipe"
)

func TestLockManagerMutualExclusion(t *testing.T) {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	lms, submit := replicate(cluster, []onepipe.ProcID{5, 6, 7})
	eng := cluster.Network().Eng

	// Clients 0..3 race for the same resource; each holds it briefly then
	// releases, driven by its own grant observation on replica 5.
	lm5 := lms[0]
	lm5.OnGrant = func(ev GrantEvent) {
		owner := ev.Owner
		// Hold for 10us, then release.
		eng.After(10*onepipe.Microsecond, func() {
			submit(owner, LockCmd{Resource: "R", Owner: owner, Release: true})
		})
	}
	for _, src := range []onepipe.ProcID{0, 1, 2, 3} {
		src := src
		eng.At(onepipe.Timestamp(50+int64(src)*2)*onepipe.Microsecond, func() {
			submit(src, LockCmd{Resource: "R", Owner: src})
		})
	}
	cluster.Run(5 * onepipe.Millisecond)

	if len(lm5.Grants) != 4 {
		t.Fatalf("granted %d times, want 4", len(lm5.Grants))
	}
	// All replicas computed the identical grant sequence.
	for r, lm := range lms[1:] {
		if len(lm.Grants) != len(lm5.Grants) {
			t.Fatalf("replica %d grant count %d != %d", r+1, len(lm.Grants), len(lm5.Grants))
		}
		for i := range lm.Grants {
			if lm.Grants[i].Owner != lm5.Grants[i].Owner {
				t.Fatalf("replica %d grant %d to %d, replica 0 to %d",
					r+1, i, lm.Grants[i].Owner, lm5.Grants[i].Owner)
			}
		}
	}
	// Grants follow request order (Lamport's mutual exclusion property:
	// granted in the order requests were made — i.e., by timestamp).
	for i := 1; i < len(lm5.Grants); i++ {
		if lm5.Grants[i].TS < lm5.Grants[i-1].TS {
			t.Fatal("grants out of total order")
		}
	}
}

func TestLockManagerStaleReleaseIgnored(t *testing.T) {
	lm := NewLockManager()
	apply := func(ts onepipe.Timestamp, cmd LockCmd) { lm.Apply(onepipe.Delivery{TS: ts, Data: cmd}) }
	apply(1, LockCmd{Resource: "R", Owner: 1})
	apply(2, LockCmd{Resource: "R", Owner: 2})                // queued
	apply(3, LockCmd{Resource: "R", Owner: 2, Release: true}) // not the holder
	if h, _ := lm.Holder("R"); h != 1 {
		t.Fatalf("stale release changed holder to %d", h)
	}
	apply(4, LockCmd{Resource: "R", Owner: 1, Release: true})
	if h, _ := lm.Holder("R"); h != 2 {
		t.Fatalf("waiter not granted, holder %d", h)
	}
}
