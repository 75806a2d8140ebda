package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestConflictAwareDegeneratesToUnified is the spine of the conflict-aware
// mode: with EVERY message tagged (any nonzero key), DeliverConflictAware
// must degenerate to DeliverUnified exactly — same seed, same workload, and
// per-host delivery logs identical element by element. The key assignment is
// a pure function of the message ID, so both runs consume the same
// randomness; any divergence means tagged traffic took a code path unified
// traffic would not (e.g. a floor the relaxed machinery forgot to advance).
func TestConflictAwareDegeneratesToUnified(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	allTagged := func(seq int32) uint32 { return 1 + uint32(seq%7) }
	for seed := int64(1); seed <= seeds; seed++ {
		uni := runKeyedWorkload(t, DeliverUnified, seed, allTagged)
		ca := runKeyedWorkload(t, DeliverConflictAware, seed, allTagged)
		for pi := range uni.Deliveries {
			if len(uni.Deliveries[pi]) != len(ca.Deliveries[pi]) {
				t.Fatalf("seed %d proc %d: log length %d (unified) vs %d (conflict-aware)",
					seed, pi, len(uni.Deliveries[pi]), len(ca.Deliveries[pi]))
			}
			for j, u := range uni.Deliveries[pi] {
				if c := ca.Deliveries[pi][j]; u != c {
					t.Fatalf("seed %d proc %d entry %d: unified %+v vs conflict-aware %+v", seed, pi, j, u, c)
				}
			}
		}
		if uni.TotalDeliveries() == 0 {
			t.Fatalf("seed %d: no deliveries — degeneracy vacuous", seed)
		}
	}
}

// TestConflictPairOrdering is the positive property of the relaxation: with
// a random mix of tagged and untagged scatterings under DeliverConflictAware,
// the oracle's conflict-aware contract holds — (a) any two deliveries sharing
// a nonzero conflict key appear in (ts, src) order at every receiver, (b)
// every pair of receivers agrees on the relative order of their common
// same-key scatterings, each delivery carries the key it was sent with — and
// (c) at least one untagged pair is actually delivered out of the global
// order somewhere, otherwise the relaxation bought nothing and the test is
// vacuous.
func TestConflictPairOrdering(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	// Roughly a third untagged, the rest spread over four conflict classes.
	keyFor := func(seq int32) uint32 {
		if seq%3 == 0 {
			return 0
		}
		return 1 + uint32(seq%4)
	}
	samekeyPairs, untaggedInversions := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		log := runKeyedWorkload(t, DeliverConflictAware, seed, keyFor)
		checkLog(t, log)
		for _, l := range log.Deliveries {
			perKey := map[uint32]int{}
			for _, d := range l {
				if d.Conflict != 0 {
					samekeyPairs += perKey[d.Conflict]
					perKey[d.Conflict]++
				}
			}
		}
		// Tagged deliveries keep the merged order, so every merged
		// inversion involves an untagged one: the latency the relaxation
		// actually harvested.
		untaggedInversions += mergedInversions(log)
	}
	if samekeyPairs == 0 {
		t.Fatalf("no same-key delivery pair in %d seeds — conflict ordering tested nothing", seeds)
	}
	if untaggedInversions == 0 {
		t.Fatalf("no untagged delivery left the global order in %d seeds — the relaxation is inert", seeds)
	}
}

// TestConflictAwareUntaggedNoOrder is the negative control in the style of
// TestSeparatePerPlaneOrderOnly: with NOTHING tagged, DeliverConflictAware
// promises no cross-message order at all — at least one receiver's merged
// log must exhibit an inversion across the seeds (otherwise untagged traffic
// is secretly still paying the barrier wait), while the rest of the contract
// (at-most-once, atomicity, the commit gate on reliable traffic) must
// survive unconditionally.
func TestConflictAwareUntaggedNoOrder(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	inversions := 0
	for seed := int64(1); seed <= seeds; seed++ {
		log := runKeyedWorkload(t, DeliverConflictAware, seed, nil)
		checkLog(t, log)
		if log.TotalDeliveries() == 0 {
			t.Fatalf("seed %d: no deliveries", seed)
		}
		inversions += mergedInversions(log)
	}
	if inversions == 0 {
		t.Fatalf("no merged-order inversion in %d untagged conflict-aware seeds — relaxed delivery never fired", seeds)
	}
}

// TestConflictAwareRelaxedLatency pins the latency claim behind the mode: on
// an otherwise idle cluster, an untagged best-effort message delivers
// strictly earlier than the same message tagged (the tagged one waits for
// the barriers to cover its timestamp; the untagged one delivers on
// reassembly, the paper's 0.5 RTT floor).
func TestConflictAwareRelaxedLatency(t *testing.T) {
	oneShot := func(key uint32) sim.Time {
		cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
		cfg.Seed = 1
		ccfg := DefaultConfig()
		ccfg.Mode = DeliverConflictAware
		cl := Deploy(netsim.New(cfg), ccfg)
		eng := cl.Net.Eng
		sent := 10 * sim.Microsecond
		var latency sim.Time = -1
		cl.Procs[3].OnDeliver = func(d Delivery) {
			if latency < 0 {
				latency = eng.Now() - sent
			}
		}
		eng.At(sent, func() {
			if err := cl.Proc(0).SendOpts([]Message{{Dst: 3, Data: int64(1), Size: 64}}, SendOptions{ConflictKey: key}); err != nil {
				t.Errorf("key=%d: send failed: %v", key, err)
			}
		})
		cl.Run(300 * sim.Microsecond)
		if latency < 0 {
			t.Fatalf("key=%d: message never delivered", key)
		}
		return latency
	}
	relaxed := oneShot(0)
	tagged := oneShot(9)
	if relaxed >= tagged {
		t.Fatalf("untagged latency %v not below tagged latency %v — relaxation inert", relaxed, tagged)
	}
}
