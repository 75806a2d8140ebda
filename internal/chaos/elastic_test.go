package chaos

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// elasticPlan is a crafted membership-churn scenario: two hosts join the
// running fabric at different times, one incumbent gracefully drains, a
// spine switch drains, and a host crash lands in the middle of it all so
// the §5.2 failure pipeline and the epoch pipeline interleave on the same
// Raft log. SpinesPerPod is 2 so the spine drain reroutes instead of
// partitioning.
func elasticPlan(seed int64) Plan {
	p := Plan{
		Seed:         seed,
		Topo:         topology.ClosConfig{Pods: 2, RacksPerPod: 1, HostsPerRack: 3, SpinesPerPod: 2, Cores: 2},
		ProcsPerHost: 1,
		Mode:         core.DeliverSeparate,
		MaxRetx:      6,
		RunFor:       9 * sim.Millisecond,
		Workload: Workload{
			Interval:     4 * sim.Microsecond,
			Stop:         4 * sim.Millisecond,
			MaxFanout:    3,
			ReliableFrac: 0.8,
			MsgBytes:     128,
		},
		Faults: []Fault{{At: 2800 * sim.Microsecond, Kind: FaultHostCrash, Host: 1}},
		Joins: []JoinEvent{
			{At: 1000 * sim.Microsecond, Pod: 0, Rack: 0},
			{At: 1600 * sim.Microsecond, Pod: 1, Rack: 0},
		},
	}
	scratch := topology.NewClos(p.Topo)
	spine := scratch.Node(scratch.SpineUps(0)[1]).Phys
	p.Drains = []DrainEvent{
		{At: 2200 * sim.Microsecond, Host: 4},
		{At: 3200 * sim.Microsecond, Switch: true, Phys: spine},
	}
	return p
}

// TestChaosElastic runs interleaved joins, drains, a switch drain and an
// injected crash under the full invariant catalog — including the epoch
// checkers — and asserts the run is deterministically replayable (runSeed
// executes every plan twice and compares digests).
func TestChaosElastic(t *testing.T) {
	p := elasticPlan(23)
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}

	if len(r.Joined) != 2 {
		t.Fatalf("joins activated: %d, want 2 (%+v)", len(r.Joined), r.Joined)
	}
	fromJoined := 0
	for pid := range r.Joined {
		if len(r.Deliveries[pid]) == 0 {
			t.Errorf("joined proc %d delivered nothing", pid)
		}
	}
	for _, log := range r.Deliveries {
		for _, d := range log {
			if _, joined := r.Joined[d.Src]; joined {
				fromJoined++
			}
		}
	}
	if fromJoined == 0 {
		t.Fatal("no incumbent delivered anything sent by a joined host")
	}

	if len(r.Drained) != 1 {
		t.Fatalf("drained procs recorded: %d, want 1", len(r.Drained))
	}
	if len(r.DrainedSwitches) != 1 {
		t.Fatalf("drained switches recorded: %v, want one entry", r.DrainedSwitches)
	}
	if len(r.Epochs) != 4 {
		t.Fatalf("controller epoch log has %d records, want 4: %+v", len(r.Epochs), r.Epochs)
	}
	if _, crashed := r.Failed[1]; !crashed {
		t.Fatalf("injected crash of host 1 missing from failure records %+v", r.Failed)
	}
}
