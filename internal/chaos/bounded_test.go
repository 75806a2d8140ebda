package chaos

import (
	"testing"

	"onepipe/internal/sim"
)

// twoFailurePlan is the crafted schedule behind the two-simultaneous-failure
// golden digest: two hosts in different pods fail-stop at the same instant,
// so one controller failure round carries two processes and every surviving
// sender walks both its conn map and its unacked sets for recalls in a
// single ApplyFailure pass. Before the sorted-iteration fixes in
// core/fail.go, the OnProcFail fan-out and recall emission order depended on
// Go map iteration order and this schedule's FullDigest drifted across
// processes.
func twoFailurePlan() Plan {
	return craftedPlan(13,
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 1},
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 4},
	)
}

// TestScenarioTwoSimultaneousFailures drives §5.2 with two hosts crashing at
// the same instant: the failure round must name both, recalls must run, and
// the full invariant catalog must hold — deterministically (runSeed compares
// FullDigest, which includes the failure-callback order).
func TestScenarioTwoSimultaneousFailures(t *testing.T) {
	p := twoFailurePlan()
	r := runSeed(t, p)
	if vios := Check(r); len(vios) > 0 {
		failSeed(t, p, vios)
	}
	_, dead1 := r.Failed[1]
	_, dead4 := r.Failed[4]
	if !dead1 || !dead4 {
		t.Fatalf("failure records %v did not declare both crashed hosts' procs", r.Failed)
	}
	if r.Stats.Recalled == 0 {
		t.Fatal("no scattering was recalled — the abort path never ran")
	}
	if len(r.Callbacks) == 0 {
		t.Fatal("no failure callbacks recorded — FullDigest has nothing to pin")
	}
}

// TestGoldenTwoFailureFullDigest pins the FullDigest of the crafted
// two-simultaneous-failure schedule. Unlike the seed goldens this digest
// also covers the ordered OnProcFail/OnSendFail callback log, so it is the
// regression tripwire for map-iteration nondeterminism in the failure paths
// (ApplyFailure's callback fan-out, recallAffected's conn/unacked walks).
// The CI determinism job re-runs this test in several fresh processes —
// each with a different Go map hash seed — and fails on any drift.
func TestGoldenTwoFailureFullDigest(t *testing.T) {
	// Confirmed bit-identical across repeated runs in separate processes
	// before pinning.
	const want = "86dd9e44ecacc224d50072abc42454353abcacf592be30bc77ceb024559372b0"
	r := Run(twoFailurePlan())
	if got := r.FullDigest(); got != want {
		t.Errorf("two-failure schedule: full digest %s, want %s", got, want)
	}
}

// TestScenarioHotBufferBound arms the hybrid reorder buffer under loss: with
// ReorderHotCap set low enough that overflow actually spills, the delivery
// log must be byte-identical to the unbounded run (spilling is a memory
// placement decision, never an ordering one), the peak hot occupancy must
// respect the cap (invariant 14), and the full catalog must hold.
func TestScenarioHotBufferBound(t *testing.T) {
	burst := Fault{At: 1200 * sim.Microsecond, Kind: FaultLossBurst, Dur: 800 * sim.Microsecond, Rate: 0.12}
	base := craftedPlan(17, burst)
	capped := craftedPlan(17, burst)
	capped.ReorderHotCap = 4

	rBase := Run(base)
	rCap := runSeed(t, capped)
	if vios := Check(rCap); len(vios) > 0 {
		failSeed(t, capped, vios)
	}
	if rCap.Stats.ReorderSpills == 0 {
		t.Fatalf("cap=4 produced no spills (hot max %d) — the cold store never engaged; lower the cap",
			rCap.Stats.ReorderHotMax)
	}
	if rCap.Stats.ReorderHotMax > 4 {
		t.Fatalf("peak hot occupancy %d exceeds cap 4", rCap.Stats.ReorderHotMax)
	}
	if rBase.Digest() != rCap.Digest() {
		t.Fatalf("capped delivery log diverged from unbounded: %s != %s (spilling changed ordering)",
			rCap.Digest()[:16], rBase.Digest()[:16])
	}
}

// TestScenarioHotBoundCheckerSensitivity is invariant 14's negative control:
// a run whose reported peak hot occupancy exceeds the plan's cap must trip
// hot-buffer-bound. Guards against the checker silently checking nothing.
func TestScenarioHotBoundCheckerSensitivity(t *testing.T) {
	p := craftedPlan(23)
	p.ReorderHotCap = 8
	r := Run(p)
	if vios := Check(r); len(vios) > 0 {
		t.Fatalf("clean run already fails: %v", vios)
	}
	r.Stats.ReorderHotMax = 9
	hit := false
	for _, v := range Check(r) {
		if v.Invariant == "hot-buffer-bound" {
			hit = true
		}
	}
	if !hit {
		t.Error("over-cap hot occupancy did not trip hot-buffer-bound — checker is blind")
	}
}
