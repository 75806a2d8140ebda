package chaos

import (
	"testing"

	"onepipe/internal/oracle"
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
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
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
