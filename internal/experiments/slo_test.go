package experiments

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

// TestSLOReplayDeterminism is the acceptance check for the SLO pipeline:
// two runs of the race at one scale must produce identical delivery counts
// and percentile rows.
func TestSLOReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slo race skipped in -short mode")
	}
	a := RunSLO(tiny())
	b := RunSLO(tiny())
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 config rows, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs between two runs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Delivered == 0 {
			t.Errorf("config %s delivered nothing", a[i].Config)
		}
		if !(a[i].P50 <= a[i].P99 && a[i].P99 <= a[i].P999) {
			t.Errorf("config %s percentiles not monotone: %+v", a[i].Config, a[i])
		}
	}
}

// TestDriveSourceMatchesTickers pins the fig8 migration: driving a
// RoundRobin source through the stamped drivePump must deliver messages (the exact
// schedule equivalence is pinned in workload's TestRoundRobinSchedule; this
// covers the pump end of the contract).
func TestDriveSourceMatchesTickers(t *testing.T) {
	cl := deploy(8, nil, nil)
	eng := cl.Net.Eng
	delivered := 0
	for _, p := range cl.Procs {
		p.OnDeliver = func(core.Delivery) { delivered++ }
	}
	drivePump(cl, workload.NewRoundRobin(8, 2*sim.Microsecond, 64, false), true)
	eng.RunFor(100 * sim.Microsecond)
	// 8 procs sending every 2us for 100us ≈ 400 sends; batching and the
	// final window edge trim a few.
	if delivered < 300 {
		t.Fatalf("drivePump delivered only %d messages", delivered)
	}
}
