package controller

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func shardedCluster(t *testing.T) (*core.Cluster, *Sharded) {
	t.Helper()
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ncfg.ControllerManagedCommit = true
	net := netsim.New(ncfg)
	cl := core.Deploy(net, core.DefaultConfig())
	s := NewSharded(net, cl)
	if !s.WaitLeaders(100 * sim.Millisecond) {
		t.Fatal("shard leaders not elected")
	}
	return cl, s
}

func TestShardedRoutesFailureToOwningPod(t *testing.T) {
	cl, s := shardedCluster(t)
	eng := cl.Net.Eng
	// Host 5 lives in pod 1: only shard 1 should record its failure.
	eng.At(eng.Now()+100*sim.Microsecond, func() {
		cl.Hosts[5].Stop()
		cl.Net.G.KillNode(cl.Net.G.Host(5))
	})
	cl.Run(10 * sim.Millisecond)
	if len(s.Shards[1].Failures) != 1 {
		t.Fatalf("owning shard recorded %d failures", len(s.Shards[1].Failures))
	}
	if len(s.Shards[0].Failures) != 0 {
		t.Fatalf("non-owning shard recorded %d failures", len(s.Shards[0].Failures))
	}
	if _, ok := s.Shards[1].Failures[0].Procs[5]; !ok {
		t.Fatal("wrong failed proc recorded")
	}
	// The whole fabric still got Discard/Recall: a cross-pod host knows.
	if err := cl.Proc(0).SendReliable([]core.Message{{Dst: 5, Size: 16}}); err == nil {
		t.Fatal("pod-0 host unaware of pod-1 failure")
	}
}

func TestShardedConcurrentFailuresInBothPods(t *testing.T) {
	cl, s := shardedCluster(t)
	eng := cl.Net.Eng
	eng.At(eng.Now()+100*sim.Microsecond, func() {
		cl.Hosts[0].Stop() // pod 0
		cl.Net.G.KillNode(cl.Net.G.Host(0))
		cl.Hosts[7].Stop() // pod 1
		cl.Net.G.KillNode(cl.Net.G.Host(7))
	})
	cl.Run(15 * sim.Millisecond)
	failed := make(map[netsim.ProcID]bool)
	for _, rec := range s.Failures() {
		for p := range rec.Procs {
			failed[p] = true
		}
	}
	if !failed[0] || !failed[7] {
		t.Fatalf("recorded %v, want procs 0 and 7 across shards", failed)
	}
	if len(s.Shards[0].Failures) == 0 || len(s.Shards[1].Failures) == 0 {
		t.Fatal("failures not handled in parallel by both shards")
	}
	// Survivors flow.
	delivered := 0
	cl.Procs[2].OnDeliver = func(core.Delivery) { delivered++ }
	cl.Proc(1).SendReliable([]core.Message{{Dst: 2, Size: 16}})
	cl.Run(5 * sim.Millisecond)
	if delivered != 1 {
		t.Fatal("survivors wedged after dual-pod failures")
	}
}

func TestShardedCoreFailureGoesToShardZero(t *testing.T) {
	cl, s := shardedCluster(t)
	eng := cl.Net.Eng
	var corePhys int
	for _, n := range cl.Net.G.Nodes {
		if n.Kind == topology.KindCore {
			corePhys = n.Phys
			break
		}
	}
	recovered := 0
	for _, sh := range s.Shards {
		sh.OnRecovered = func(FailureRecord) { recovered++ }
	}
	eng.At(eng.Now()+100*sim.Microsecond, func() { cl.Net.G.KillPhys(corePhys) })
	cl.Run(10 * sim.Millisecond)
	if recovered == 0 {
		t.Fatal("no shard completed core-failure recovery")
	}
	for _, sh := range s.Shards {
		for _, rec := range sh.Failures {
			if len(rec.Procs) != 0 {
				t.Fatalf("core failure marked processes failed: %v", rec.Procs)
			}
		}
	}
}
