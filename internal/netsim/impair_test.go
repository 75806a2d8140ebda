package netsim

import (
	"math"
	"testing"

	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestGEStatistics drives the Gilbert-Elliott chain over many packets and
// checks the empirical average loss and mean burst length against the
// analytic values (avg = PGB/(PGB+PBG), mean burst = 1/PBG).
func TestGEStatistics(t *testing.T) {
	const (
		avgLoss   = 0.05
		meanBurst = 8.0
		packets   = 400000
	)
	st := NewImpairState(&Impairment{GE: BurstLoss(avgLoss, meanBurst)}, 42, 7)
	drops, bursts, cur := 0, 0, 0
	for i := 0; i < packets; i++ {
		if st.dropBurst(0) {
			drops++
			cur++
		} else if cur > 0 {
			bursts++
			cur = 0
		}
	}
	if cur > 0 {
		bursts++
	}
	emp := float64(drops) / packets
	if math.Abs(emp-avgLoss) > 0.2*avgLoss {
		t.Errorf("empirical loss %.4f, want %.4f ±20%%", emp, avgLoss)
	}
	empBurst := float64(drops) / float64(bursts)
	if math.Abs(empBurst-meanBurst) > 0.15*meanBurst {
		t.Errorf("empirical mean burst %.2f, want %.2f ±15%%", empBurst, meanBurst)
	}
}

// TestNoStatefulModelNoRNG: an impairment with no stateful loss model must
// not consume — or even build — the per-link RNG on the simulator's drop and
// reorder paths (the determinism contract: enabling GE on one link never
// perturbs another link's stream; and a rand.Rand is ~5 KB per link).
func TestNoStatefulModelNoRNG(t *testing.T) {
	st := NewImpairState(&Impairment{Loss: 0.1, Jitter: sim.Microsecond, ExtraDelay: sim.Microsecond}, 1, 3)
	for i := 0; i < 100; i++ {
		if st.dropBurst(sim.Time(i)) {
			t.Fatal("unexpected drop")
		}
		if st.reorderExtra() != 0 {
			t.Fatal("unexpected reorder")
		}
	}
	if st.lazy != nil {
		t.Error("drop/reorder path built the per-link RNG with no stateful model configured")
	}
	if NewImpairState(nil, 1, 3) != nil || NewImpairState(&Impairment{}, 1, 3) != nil {
		t.Error("nil/zero impairment must yield no state")
	}
}

// TestDutyCycleWindows: duty-cycle loss drops everything inside On windows
// and nothing outside them when Rate defaults to 1.
func TestDutyCycleWindows(t *testing.T) {
	st := NewImpairState(&Impairment{
		Duty: &DutyCycle{On: 10 * sim.Microsecond, Off: 90 * sim.Microsecond},
	}, 9, 1)
	period := 100 * sim.Microsecond
	for cycle := 0; cycle < 3; cycle++ {
		base := sim.Time(cycle) * period
		if !st.dropBurst(base + 5*sim.Microsecond) {
			t.Errorf("cycle %d: packet inside On window survived", cycle)
		}
		if st.dropBurst(base + 50*sim.Microsecond) {
			t.Errorf("cycle %d: packet inside Off window dropped", cycle)
		}
	}
}

// TestProfileResolution checks most-specific-wins: ByLink over ByKind over
// Default, and that a nil profile resolves to nil everywhere.
func TestProfileResolution(t *testing.T) {
	var nilP *Profile
	if nilP.For(1, topology.LinkHostUp) != nil {
		t.Fatal("nil profile must resolve nil")
	}
	def := &Impairment{Loss: 0.1}
	kind := &Impairment{Loss: 0.2}
	link := &Impairment{Loss: 0.3}
	p := &Profile{
		Default: def,
		ByKind:  map[topology.LinkKind]*Impairment{topology.LinkHostUp: kind},
		ByLink:  map[topology.LinkID]*Impairment{7: link},
	}
	if got := p.For(7, topology.LinkHostUp); got != link {
		t.Errorf("ByLink should win, got %+v", got)
	}
	if got := p.For(8, topology.LinkHostUp); got != kind {
		t.Errorf("ByKind should win, got %+v", got)
	}
	if got := p.For(8, topology.LinkLoopback); got != def {
		t.Errorf("Default should apply, got %+v", got)
	}
}

// TestBurstLossDerivation: the convenience constructor must hit the asked-for
// stationary loss rate and burst length analytically.
func TestBurstLossDerivation(t *testing.T) {
	ge := BurstLoss(0.02, 5)
	pi := ge.PGoodBad / (ge.PGoodBad + ge.PBadGood)
	if math.Abs(pi-0.02) > 1e-12 {
		t.Errorf("stationary bad prob %.6f, want 0.02", pi)
	}
	if math.Abs(1/ge.PBadGood-5) > 1e-12 {
		t.Errorf("mean burst %.3f, want 5", 1/ge.PBadGood)
	}
}

// TestUniformProfileDrawSequence runs a small fabric workload under a
// uniform loss+jitter profile and pins the drop count recorded with the
// global loss/jitter config knobs that predated profiles: the profile
// consumes the network's RNG at the same draw points those knobs did. It also
// checks the allocation side of that move — no link built a per-link RNG.
func TestUniformProfileDrawSequence(t *testing.T) {
	topo := topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}
	cfg := DefaultConfig(topo, 1)
	cfg.Seed = 77
	cfg.Impair = Uniform(Impairment{Loss: 0.08, Jitter: 300 * sim.Nanosecond})
	n := New(cfg)
	for i := 0; i < 400; i++ {
		src := ProcID(i % 4)
		n.SendFromProc(src, &Packet{Kind: KindData, Src: src, Dst: ProcID((i + 1) % 4), Size: 256})
		n.Eng.RunFor(500 * sim.Nanosecond)
	}
	n.Eng.RunFor(100 * sim.Microsecond)
	if got := n.Stats.CorruptDrop; got != 99 {
		t.Errorf("dropped %d packets, want 99 (the legacy-knob run)", got)
	}
	for _, l := range n.links {
		if l.imp == nil {
			t.Fatalf("link %d has no impairment state under a Default profile", l.id)
		}
		if l.imp.lazy != nil {
			t.Fatalf("link %d built a per-link RNG under a uniform-only profile", l.id)
		}
	}
}
