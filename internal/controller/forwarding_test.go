package controller

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// partitionPods kills every core switch, cutting pod 0 from pod 1 while
// every host stays up (and controller-reachable via the management
// network).
func partitionPods(g *topology.Graph) {
	for _, n := range g.Nodes {
		if n.Kind == topology.KindCore {
			g.KillPhys(n.Phys)
		}
	}
}

func TestControllerForwardingAcrossPartition(t *testing.T) {
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ncfg.ControllerManagedCommit = true
	ccfg := core.DefaultConfig()
	ccfg.MaxRetx = 4 // escalate to the controller quickly
	net := netsim.New(ncfg)
	cl := core.Deploy(net, ccfg)
	ctrl := New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("no controller leader")
	}
	eng := net.Eng
	var got []string
	cl.Procs[7].OnDeliver = func(d core.Delivery) { got = append(got, d.Data.(string)) }

	base := eng.Now()
	eng.At(base+100*sim.Microsecond, func() { partitionPods(net.G) })
	// Send cross-pod (proc 0 in pod 0 -> proc 7 in pod 1) after the
	// partition: the direct path is gone; delivery must go through the
	// controller relay.
	eng.At(base+200*sim.Microsecond, func() {
		if err := cl.Proc(0).SendReliable([]core.Message{{Dst: 7, Data: "via-controller", Size: 64}}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	eng.RunFor(50 * sim.Millisecond)

	if ctrl.ForwardedMsgs == 0 {
		t.Fatal("controller never forwarded")
	}
	if len(got) != 1 || got[0] != "via-controller" {
		t.Fatalf("delivered %v across the partition", got)
	}
	// The sender's commit floor must have advanced (ACK via controller),
	// so its outstanding list is empty and new local traffic flows.
	delivered2 := 0
	cl.Procs[1].OnDeliver = func(core.Delivery) { delivered2++ }
	cl.Proc(0).SendReliable([]core.Message{{Dst: 1, Size: 64}}) // same rack
	eng.RunFor(5 * sim.Millisecond)
	if delivered2 != 1 {
		t.Fatal("intra-pod traffic wedged after forwarding")
	}
}

func TestSecondFailureDuringRecovery(t *testing.T) {
	// Two hosts die in quick succession: the controller's aggregation
	// window plus busy-rearm must handle the second report as a second
	// round, and both failures end up recorded.
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ncfg.ControllerManagedCommit = true
	net := netsim.New(ncfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("no controller leader")
	}
	eng := net.Eng
	base := eng.Now()
	eng.At(base+100*sim.Microsecond, func() {
		cl.Hosts[0].Stop()
		net.G.KillNode(net.G.Host(0))
	})
	eng.At(base+160*sim.Microsecond, func() { // inside the first recovery
		cl.Hosts[7].Stop()
		net.G.KillNode(net.G.Host(7))
	})
	eng.RunFor(20 * sim.Millisecond)

	failed := make(map[netsim.ProcID]bool)
	for _, rec := range ctrl.Failures {
		for p := range rec.Procs {
			failed[p] = true
		}
	}
	if !failed[0] || !failed[7] {
		t.Fatalf("recorded failures %v, want procs 0 and 7", failed)
	}
	// Survivors keep working.
	delivered := 0
	cl.Procs[2].OnDeliver = func(core.Delivery) { delivered++ }
	cl.Proc(1).SendReliable([]core.Message{{Dst: 2, Size: 64}})
	eng.RunFor(5 * sim.Millisecond)
	if delivered != 1 {
		t.Fatal("survivors wedged after double failure")
	}
}

func TestReceiverRecoveryDeliversConsistently(t *testing.T) {
	// A receiver disconnects, misses a failure round, reconnects, replays
	// controller state, and then discards exactly what everyone else
	// discarded.
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ncfg.ControllerManagedCommit = true
	net := netsim.New(ncfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("no leader")
	}
	eng := net.Eng
	base := eng.Now()
	// Host 1 dies; host 6 is "away" (we model a recovering receiver by
	// just replaying state to it afterwards — its network stayed up).
	eng.At(base+100*sim.Microsecond, func() {
		cl.Hosts[1].Stop()
		net.G.KillNode(net.G.Host(1))
	})
	eng.RunFor(10 * sim.Millisecond)
	ctrl.RecoverHost(6)
	eng.RunFor(1 * sim.Millisecond)
	// Host 6 now refuses sends to the failed proc, same as everyone else.
	if err := cl.Proc(6).SendReliable([]core.Message{{Dst: 1, Size: 64}}); err == nil {
		t.Fatal("recovered host does not know about the failure")
	}
}
