package dsm

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func deploy(t *testing.T, tr Transport) (*core.Cluster, *Store) {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	// Realistic per-packet delay variation: this is what makes ordering
	// hazards observable on the unordered transport (different paths,
	// different delays — §2.2.1).
	cfg.Impair = netsim.UniformJitter(3 * sim.Microsecond)
	cl := core.Deploy(netsim.New(cfg), core.DefaultConfig())
	return cl, New(cl, tr)
}

func TestBasicReadWrite(t *testing.T) {
	cl, st := deploy(t, TransportOnePipe)
	var got uint64
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		st.Write(0, 42, 7)
		st.Read(1, 42, func(v uint64) { got = v })
	})
	cl.Run(1 * sim.Millisecond)
	if got != 7 {
		t.Fatalf("read %d, want 7 (ordered read must see the earlier write)", got)
	}
}

func TestWAWHazardEliminatedByOnePipe(t *testing.T) {
	cl, st := deploy(t, TransportOnePipe)
	res := st.RunWAW(cl.Net.Eng, 300, 2*sim.Microsecond)
	cl.Run(5 * sim.Millisecond)
	if res.Trials < 290 {
		t.Fatalf("only %d/300 trials completed", res.Trials)
	}
	if res.Violations != 0 {
		t.Fatalf("%d WAW violations with 1Pipe (must be zero)", res.Violations)
	}
}

func TestWAWHazardObservableOnRaw(t *testing.T) {
	cl, st := deploy(t, TransportRaw)
	res := st.RunWAW(cl.Net.Eng, 300, 2*sim.Microsecond)
	cl.Run(5 * sim.Millisecond)
	if res.Trials < 290 {
		t.Fatalf("only %d/300 trials completed", res.Trials)
	}
	if res.Violations == 0 {
		t.Fatal("no WAW violation on raw transport under jitter — the hazard should be observable")
	}
	t.Logf("raw WAW violations: %d/%d", res.Violations, res.Trials)
}

func TestIRIWHazardEliminatedByOnePipe(t *testing.T) {
	cl, st := deploy(t, TransportOnePipe)
	res := st.RunIRIW(cl.Net.Eng, 300, 2*sim.Microsecond)
	cl.Run(5 * sim.Millisecond)
	if res.Trials < 290 {
		t.Fatalf("only %d/300 trials completed", res.Trials)
	}
	if res.Violations != 0 {
		t.Fatalf("%d IRIW violations with 1Pipe (must be zero)", res.Violations)
	}
}

func TestIRIWHazardObservableOnRaw(t *testing.T) {
	cl, st := deploy(t, TransportRaw)
	res := st.RunIRIW(cl.Net.Eng, 500, 2*sim.Microsecond)
	cl.Run(8 * sim.Millisecond)
	if res.Trials < 480 {
		t.Fatalf("only %d/500 trials completed", res.Trials)
	}
	if res.Violations == 0 {
		t.Fatal("no IRIW violation on raw transport under jitter — the hazard should be observable")
	}
	t.Logf("raw IRIW violations: %d/%d", res.Violations, res.Trials)
}
