package experiments

import (
	"strings"
	"testing"

	"onepipe/internal/sim"
)

// tiny is a minimal scale so the whole registry can run in CI.
func tiny() Scale {
	return Scale{Name: "tiny", MaxProcs: 8, Window: 100 * sim.Microsecond, Warmup: 50 * sim.Microsecond, Seeds: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"8a", "8b", "9a", "9b", "10", "11", "12a", "12b", "13a", "13b", "14a", "14b", "14c", "15a", "15b", "16", "ceph", "ooo", "haz", "abl-barrier", "abl-relay", "abl-ecmp", "abl-beacon", "elastic", "proj", "stages", "chaos", "scale", "conflict", "slo", "serve"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
	if _, ok := Find("14a"); !ok {
		t.Fatal("Find failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find matched a bogus id")
	}
}

// Every experiment must run to completion at tiny scale and produce a
// plausibly-shaped table.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl := r.Run(tiny())
			if tbl.ID != r.ID {
				t.Fatalf("table id %s, want %s", tbl.ID, r.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("row width %d != %d columns: %v", len(row), len(tbl.Columns), row)
				}
			}
			var sb strings.Builder
			tbl.Print(&sb)
			if !strings.Contains(sb.String(), tbl.ID) {
				t.Fatal("Print lost the table id")
			}
		})
	}
}

func TestTopoForSizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 512} {
		topo, pph := topoFor(n)
		if got := topo.NumHosts() * pph; got < n {
			t.Fatalf("topoFor(%d) provides only %d proc slots", n, got)
		}
	}
}

// BenchmarkFabricScale is BENCH_core.json's scale_1024 row: one 400 µs
// window of the 1024-host scale workload per op, with its executed events.
func BenchmarkFabricScale(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		_, events, _, _ = FabricScaleOnce(400 * sim.Microsecond)
	}
	b.ReportMetric(float64(events), "events")
}
