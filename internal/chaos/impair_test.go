package chaos

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestGoldenLossJitterFullDigest pins the FullDigest — delivery logs and
// callback logs both — of a crafted plan where base loss and jitter are both
// guaranteed nonzero (the golden seeds draw theirs, so either may be zero),
// a loss burst raises the rate over that baseline and hands it back, and a
// host crashes. The digest was recorded when BaseLoss/Jitter still reached
// netsim as two global config knobs and the burst mutated the config
// mid-run; the uniform profile and the SetLossOverride hook must consume the
// network's RNG at the same draw points to reproduce it.
func TestGoldenLossJitterFullDigest(t *testing.T) {
	const want = "81a182ab5d21298e7b178f9937a8a8c11ae351dbe22866afa6f5682633b1db06"
	p := craftedPlan(1311,
		Fault{At: 1200 * sim.Microsecond, Kind: FaultLossBurst, Rate: 0.15, Dur: 400 * sim.Microsecond},
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 4})
	p.BaseLoss = 0.008
	p.Jitter = 400 * sim.Nanosecond
	r := Run(p)
	if got := r.FullDigest(); got != want {
		t.Errorf("loss+jitter+burst schedule: full digest %s, want %s", got, want)
	}
	if got := r.TotalDeliveries(); got != 7228 {
		t.Errorf("%d deliveries, want 7228", got)
	}
}

// TestScenarioBurstLossProfileUnderCrash runs a Gilbert-Elliott burst-loss
// profile (host links only) concurrently with a loss-burst fault and a host
// crash: the §5.2 failure path under correlated loss. runSeed replays the
// plan twice and demands full-digest equality — the per-link impairment RNG
// is part of the determinism contract — and the whole invariant catalog
// must hold on the result.
func TestScenarioBurstLossProfileUnderCrash(t *testing.T) {
	p := craftedPlan(2026,
		Fault{At: 1200 * sim.Microsecond, Kind: FaultLossBurst, Rate: 0.15, Dur: 400 * sim.Microsecond},
		Fault{At: 2000 * sim.Microsecond, Kind: FaultHostCrash, Host: 1})
	p.Impair = &netsim.Profile{
		Default: &netsim.Impairment{Jitter: 200 * sim.Nanosecond},
		ByKind: map[topology.LinkKind]*netsim.Impairment{
			topology.LinkHostUp:      {GE: netsim.BurstLoss(0.01, 6), Jitter: 200 * sim.Nanosecond},
			topology.LinkTorHostDown: {GE: netsim.BurstLoss(0.01, 6), Jitter: 200 * sim.Nanosecond},
		},
	}
	r := runSeed(t, p)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		for _, v := range vios {
			t.Errorf("invariant violated: %v", v)
		}
	}
	if r.TotalDeliveries() == 0 {
		t.Fatal("no deliveries under burst-loss profile")
	}
}
