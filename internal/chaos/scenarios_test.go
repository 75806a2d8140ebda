package chaos

import (
	"reflect"
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// craftedPlan is the common base for the directed scenarios below: a fixed
// two-pod topology and a reliable-heavy workload, so the failure machinery
// (abort, recall, forwarding) is guaranteed to have in-flight scatterings to
// chew on when the scripted fault lands. Unlike NewPlan output the schedule
// is hand-written, which is exactly the point — these tests pin specific
// §5.2 paths rather than waiting for the seed stream to draw them.
func craftedPlan(seed int64, faults ...Fault) Plan {
	return Plan{
		Seed:         seed,
		Topo:         topology.ClosConfig{Pods: 2, RacksPerPod: 1, HostsPerRack: 3, SpinesPerPod: 1, Cores: 2},
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
		Faults: faults,
	}
}

// TestFailureTimestampIsUplinkRegister pins the Determine step's one rule:
// a failed host's fts is the commit register of its uplink. The seeds are
// the swept ones on which a report-based estimate used to set fts above
// anything the host had announced; each declared fts must be at most the
// uplink register at run end (registers only rise), and the seeds must pass
// the full check.
func TestFailureTimestampIsUplinkRegister(t *testing.T) {
	for _, seed := range []int64{10315, 11734, 11902} {
		uplinkC := make(map[netsim.ProcID]sim.Time)
		r := runWith(NewPlan(seed), nil, func(net *netsim.Network) {
			for pi := 0; pi < net.NumProcs(); pi++ {
				p := netsim.ProcID(pi)
				for _, lid := range net.G.Out[net.G.Host(net.HostOfProc(p))] {
					_, c := net.LinkRegisters(lid)
					uplinkC[p] = max(uplinkC[p], c)
				}
			}
		})
		if len(r.Failed) == 0 {
			t.Fatalf("seed %d: no process failed; the seed no longer exercises Determine", seed)
		}
		for p, fts := range r.Failed {
			if fts > uplinkC[p] {
				t.Errorf("seed %d: proc %d fts=%v above its uplink commit register %v", seed, p, fts, uplinkC[p])
			}
		}
		if vios := oracle.Check(&r.Log); len(vios) > 0 {
			t.Errorf("seed %d: %v", seed, vios)
		}
	}
}

// TestScenarioHostCrashRecall drives the §5.2 abort path through the chaos
// fault injector: a host fail-stops mid-workload, the controller detects and
// broadcasts the failure, and surviving senders must recall the live members
// of every scattering that included the dead host — with the full invariant
// catalog (restricted atomicity included) holding on the result.
func TestScenarioHostCrashRecall(t *testing.T) {
	p := craftedPlan(7, Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 2})
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}
	if _, crashed := r.Failed[2]; !crashed {
		t.Fatalf("failure records %v never declared the crashed host's proc", r.Failed)
	}
	if r.Stats.Recalled == 0 {
		t.Fatal("no scattering was recalled — the abort path never ran")
	}
	if len(r.SendFails) == 0 {
		t.Fatal("no send-failure callback fired for the crashed destination")
	}
}

// TestScenarioRecallExhaustion layers a partition under the crash so some
// recalls themselves cannot complete: host 3 (pod 1) fail-stops while pod 0
// is cut off from the core layer, so a pod-1 sender aborting a scattering
// that spanned both pods sends its recall to a live-but-unreachable pod-0
// member. The recall retransmits into the void, exhausts MaxRetx, and must
// resolve via OnStuck escalation instead of wedging the failure round (the
// resendRecall → reportStuck → finishRecall path pinned unit-level in
// core's TestLateRecallAckAfterMaxRetx).
func TestScenarioRecallExhaustion(t *testing.T) {
	p := craftedPlan(11,
		Fault{At: 1400 * sim.Microsecond, Kind: FaultPartition, Pod: 0, Dur: 1500 * sim.Microsecond},
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 3},
	)
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}
	if r.Stats.Recalled == 0 {
		t.Fatal("no scattering was recalled")
	}
	if r.Stats.StuckReports == 0 {
		t.Fatal("no OnStuck report — exhaustion path never ran")
	}
	// The run must still drain: every failure round completed, nothing
	// outstanding, or the commit floor would be parked and atomicity
	// checks above would have tripped on the silence.
	if r.TotalDeliveries() == 0 {
		t.Fatal("no deliveries at all")
	}
}

// TestScenarioPartitionForwarding cuts one pod off the core layer for a
// window. Both sides stay controller-reachable, so stuck cross-pod senders
// must escalate into §5.2 Controller Forwarding, and forwarded scatterings
// are delivered under the partition caveat without tripping any checker.
func TestScenarioPartitionForwarding(t *testing.T) {
	p := craftedPlan(3, Fault{
		At: 1200 * sim.Microsecond, Kind: FaultPartition,
		Pod: 0, Dur: 1500 * sim.Microsecond,
	})
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}
	if r.Stats.StuckReports == 0 {
		t.Fatal("partition produced no OnStuck reports — escalation never triggered")
	}
	if r.ForwardedMsgs == 0 {
		t.Fatal("partition produced no controller-forwarded messages (§5.2 Controller Forwarding)")
	}
	if len(r.Forwarded) == 0 {
		t.Fatal("no scattering was marked forwarded — checker exemptions untested")
	}
}

// TestScenarioConflictAwareCrashRecall mixes conflict-aware delivery with
// the §5.2 failure machinery: half the workload is tagged, a host fail-stops
// mid-workload under a loss burst, and the surviving senders recall live
// scattering members — some of which sit untagged in the relaxed queue and
// must be discarded by the recall exactly like ordered ones. A graceful
// drain rides along so invariant 15 also sees a membership departure. The
// run must be deterministic (replay digest equal), uphold the full invariant
// catalog including conflict-pair-order, and actually exercise both the
// relaxed delivery path and the recall path.
func TestScenarioConflictAwareCrashRecall(t *testing.T) {
	p := craftedPlan(13,
		Fault{At: 1100 * sim.Microsecond, Kind: FaultLossBurst, Dur: 600 * sim.Microsecond, Rate: 0.15},
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 2},
	)
	p.Mode = core.DeliverConflictAware
	p.ConflictRate = 0.5
	p.Drains = []DrainEvent{{At: 2400 * sim.Microsecond, Host: 4}}
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}
	if r.Stats.RelaxedDeliveries == 0 {
		t.Fatal("no relaxed deliveries — untagged traffic never left the total order")
	}
	if r.Stats.Recalled == 0 {
		t.Fatal("no scattering was recalled — the abort path never ran")
	}
	tagged, untagged := 0, 0
	for _, log := range r.Deliveries {
		for _, d := range log {
			if d.Conflict != 0 {
				tagged++
			} else {
				untagged++
			}
		}
	}
	if tagged == 0 || untagged == 0 {
		t.Fatalf("one-sided mix (tagged=%d untagged=%d) — conflict rate wired wrong", tagged, untagged)
	}
}

// TestScenarioConflictAwareDegeneracy is the degeneracy spine at cluster
// scale and under faults: with EVERY scattering tagged (ConflictRate 1), a
// conflict-aware run of a crafted crash schedule must produce a delivery-log
// digest byte-identical to the same plan under DeliverUnified — the relaxed
// machinery must be invisible when the conflict relation is total.
func TestScenarioConflictAwareDegeneracy(t *testing.T) {
	mk := func(mode core.DeliveryMode) Plan {
		p := craftedPlan(17, Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 4})
		p.Mode = mode
		p.ConflictRate = 1
		return p
	}
	ca := Run(mk(core.DeliverConflictAware))
	uni := Run(mk(core.DeliverUnified))
	if vios := oracle.Check(&ca.Log); len(vios) > 0 {
		failSeed(t, mk(core.DeliverConflictAware), vios)
	}
	if ca.Digest() != uni.Digest() {
		t.Fatalf("all-tagged conflict-aware digest %s != unified digest %s — degeneracy broken",
			ca.Digest()[:16], uni.Digest()[:16])
	}
	if ca.TotalDeliveries() == 0 {
		t.Fatal("no deliveries — degeneracy vacuous")
	}
}

// TestScenarioConflictCheckerSensitivity is invariant 15's negative control
// on a real run: corrupting a conflict-aware run's log — two same-key
// deliveries swapped at one receiver — must trip conflict-pair-order.
func TestScenarioConflictCheckerSensitivity(t *testing.T) {
	p := craftedPlan(19)
	p.Mode = core.DeliverConflictAware
	p.ConflictRate = 0.7
	r := Run(p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		t.Fatalf("clean run already fails: %v", vios)
	}
	log, first := r.Deliveries[0], map[uint32]int{}
	for i, d := range log {
		if j, seen := first[d.Conflict]; seen && d.Conflict != 0 {
			log[i], log[j] = log[j], log[i]
			break
		}
		first[d.Conflict] = i
	}
	for _, v := range oracle.Check(&r.Log) {
		if v.Invariant == "conflict-pair-order" {
			return
		}
	}
	t.Fatal("swapped same-key pair did not trip conflict-pair-order — checker is blind")
}

// TestScenarioCheckerSensitivity is the checkers' own negative control: a
// corrupted delivery log (one receiver's entries swapped, one duplicated,
// one delivered below the announced barrier) must trip the corresponding
// invariants. Guards against the catalog silently checking nothing.
func TestScenarioCheckerSensitivity(t *testing.T) {
	p := craftedPlan(5)
	r := Run(p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		t.Fatalf("clean run already fails: %v", vios)
	}
	var victim int
	for pi, log := range r.Deliveries {
		if len(log) >= 4 {
			victim = pi
			break
		}
	}
	log := r.Deliveries[victim]
	log[0], log[1] = log[1], log[0] // local-order
	log[2] = log[3]                 // at-most-once
	log[len(log)-1].BarBE = 0       // barrier-gate
	log[len(log)-1].BarC = 0        //
	log[len(log)-1].ClockAt = 0     // causality
	want := map[string]bool{"local-order": false, "at-most-once": false, "barrier-gate": false, "causality": false}
	for _, v := range oracle.Check(&r.Log) {
		if _, ok := want[v.Invariant]; ok {
			want[v.Invariant] = true
		}
	}
	for inv, hit := range want {
		if !hit {
			t.Errorf("corrupted log did not trip %s — checker is blind", inv)
		}
	}
}

// TestCheckReplayable requires the same report from every check of one
// log, as a replayable report must be, even past the violation cap: with
// receiver 0's reliable deliveries removed, many scatterings break
// atomicity at once and the cap keeps only some of them.
func TestCheckReplayable(t *testing.T) {
	r := Run(craftedPlan(5))
	kept := r.Deliveries[0][:0]
	for _, d := range r.Deliveries[0] {
		if !d.Reliable {
			kept = append(kept, d)
		}
	}
	r.Deliveries[0] = kept
	first := oracle.Check(&r.Log)
	if len(first) < oracle.MaxViolations {
		t.Fatalf("%d violations, want the cap of %d", len(first), oracle.MaxViolations)
	}
	for i := 0; i < 5; i++ {
		if again := oracle.Check(&r.Log); !reflect.DeepEqual(again, first) {
			t.Fatalf("check %d gave a different report:\n%v\nthen\n%v", i+2, first, again)
		}
	}
}
