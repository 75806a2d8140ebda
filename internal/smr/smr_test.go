package smr

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func cluster(t *testing.T, mut func(*netsim.Config)) *core.Cluster {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	if mut != nil {
		mut(&cfg)
	}
	return core.Deploy(netsim.New(cfg), core.DefaultConfig())
}

func TestReplicasConverge(t *testing.T) {
	cl := cluster(t, nil)
	reps := []netsim.ProcID{5, 6, 7}
	g := NewGroup(cl, reps, func(netsim.ProcID) StateMachine { return &Counter{} })
	eng := cl.Net.Eng
	// Three concurrent clients submit non-commutative commands.
	for _, src := range []netsim.ProcID{0, 1, 2} {
		src := src
		sim.NewTicker(eng, 3*sim.Microsecond, 0, func() {
			if eng.Now() > 200*sim.Microsecond {
				return
			}
			g.Submit(src, int64(src)+1, 8)
		})
	}
	cl.Run(3 * sim.Millisecond)
	c5 := g.SM(5).(*Counter)
	c6 := g.SM(6).(*Counter)
	c7 := g.SM(7).(*Counter)
	if len(c5.Log) == 0 {
		t.Fatal("no commands applied")
	}
	if c5.Value != c6.Value || c6.Value != c7.Value {
		t.Fatalf("replica values diverge: %d %d %d", c5.Value, c6.Value, c7.Value)
	}
	if len(c5.Log) != len(c6.Log) || len(c6.Log) != len(c7.Log) {
		t.Fatalf("log lengths diverge: %d %d %d", len(c5.Log), len(c6.Log), len(c7.Log))
	}
}

func TestReplicasConvergeUnderLoss(t *testing.T) {
	cl := cluster(t, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.01); c.Seed = 5 })
	reps := []netsim.ProcID{5, 6, 7}
	g := NewGroup(cl, reps, func(netsim.ProcID) StateMachine { return &Counter{} })
	eng := cl.Net.Eng
	for i := 0; i < 100; i++ {
		i := i
		eng.At(sim.Time(50+i*3)*sim.Microsecond, func() {
			g.Submit(netsim.ProcID(i%3), int64(i), 8)
		})
	}
	cl.Run(20 * sim.Millisecond)
	c5 := g.SM(5).(*Counter)
	c6 := g.SM(6).(*Counter)
	c7 := g.SM(7).(*Counter)
	if len(c5.Log) != 100 {
		t.Fatalf("replica 5 applied %d of 100", len(c5.Log))
	}
	if c5.Value != c6.Value || c6.Value != c7.Value {
		t.Fatalf("replica values diverge under loss: %d %d %d", c5.Value, c6.Value, c7.Value)
	}
}

func TestLockManagerMutualExclusion(t *testing.T) {
	cl := cluster(t, nil)
	reps := []netsim.ProcID{5, 6, 7}
	g := NewGroup(cl, reps, func(netsim.ProcID) StateMachine { return NewLockManager() })
	eng := cl.Net.Eng

	// Clients 0..3 race for the same resource; each holds it briefly then
	// releases, driven by its own grant observation on replica 5.
	lm5 := g.SM(5).(*LockManager)
	lm5.OnGrant = func(ev GrantEvent) {
		owner := ev.Owner
		// Hold for 10us, then release.
		eng.After(10*sim.Microsecond, func() {
			g.Submit(owner, LockCmd{Resource: "R", Owner: owner, Release: true}, 8)
		})
	}
	for _, src := range []netsim.ProcID{0, 1, 2, 3} {
		src := src
		eng.At(sim.Time(50+int64(src)*2)*sim.Microsecond, func() {
			g.Submit(src, LockCmd{Resource: "R", Owner: src}, 8)
		})
	}
	cl.Run(5 * sim.Millisecond)

	if len(lm5.Grants) != 4 {
		t.Fatalf("granted %d times, want 4", len(lm5.Grants))
	}
	// All replicas computed the identical grant sequence.
	for _, r := range []netsim.ProcID{6, 7} {
		lm := g.SM(r).(*LockManager)
		if len(lm.Grants) != len(lm5.Grants) {
			t.Fatalf("replica %d grant count %d != %d", r, len(lm.Grants), len(lm5.Grants))
		}
		for i := range lm.Grants {
			if lm.Grants[i].Owner != lm5.Grants[i].Owner {
				t.Fatalf("replica %d grant %d to %d, replica 5 to %d",
					r, i, lm.Grants[i].Owner, lm5.Grants[i].Owner)
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
	lm.Apply(1, 0, LockCmd{Resource: "R", Owner: 1})
	lm.Apply(2, 0, LockCmd{Resource: "R", Owner: 2})                // queued
	lm.Apply(3, 0, LockCmd{Resource: "R", Owner: 2, Release: true}) // not the holder
	if h, _ := lm.Holder("R"); h != 1 {
		t.Fatalf("stale release changed holder to %d", h)
	}
	lm.Apply(4, 0, LockCmd{Resource: "R", Owner: 1, Release: true})
	if h, _ := lm.Holder("R"); h != 2 {
		t.Fatalf("waiter not granted, holder %d", h)
	}
}
