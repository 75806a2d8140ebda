package experiments

import (
	"fmt"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// runLatencyProbe measures idle-system delivery latency: Fig. 9's probes,
// all of class c.
func runLatencyProbe(sc Scale, n int, mode netsim.Mode, c class, loss float64) stats.Sample {
	cl := deploy(n, func(cfg *netsim.Config) {
		cfg.Mode = mode
		cfg.Impair = netsim.UniformLoss(loss)
	}, nil)
	s := idleProbes(sc, c)
	return runProbes(cl, s, s.end()+2*sim.Millisecond).lat[c]
}

// Fig9a regenerates idle-system delivery latency across variants.
func Fig9a(sc Scale) *Table {
	t := &Table{
		ID: "9a", Title: "Delivery latency (us): mean [p5, p95]",
		Columns: []string{"procs", "BE-chip", "BE-host", "R-chip", "R-host", "unordered"},
	}
	for _, n := range procSweep(sc, []int{8, 16, 32, 512}) {
		beChip := runLatencyProbe(sc, n, netsim.ModeChip, classBE, 0)
		beHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, classBE, 0)
		rChip := runLatencyProbe(sc, n, netsim.ModeChip, classRel, 0)
		rHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, classRel, 0)
		raw := runLatencyProbe(sc, n, netsim.ModeChip, classRaw, 0)
		t.AddRow(f1(float64(n)),
			beChip.Summary(), beHost.Summary(), rChip.Summary(), rHost.Summary(), raw.Summary())
	}
	t.Notes = append(t.Notes,
		"expected shape: unordered < BE-chip < R-chip; host delegation adds ~2us per hop; overhead grows with hop count (8->32 procs)")
	return t
}

// Fig9b regenerates delivery latency under increasing packet loss (the
// paper's 512-process setting, scaled).
func Fig9b(sc Scale) *Table {
	t := &Table{
		ID: "9b", Title: "Average delivery latency (us) vs. packet loss probability",
		Columns: []string{"loss", "BE-chip", "BE-host", "R-chip", "R-host", "unordered"},
	}
	n := sc.MaxProcs
	if n > 64 {
		n = 64
	}
	for _, loss := range []float64{1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
		beChip := runLatencyProbe(sc, n, netsim.ModeChip, classBE, loss)
		beHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, classBE, loss)
		rChip := runLatencyProbe(sc, n, netsim.ModeChip, classRel, loss)
		rHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, classRel, loss)
		raw := runLatencyProbe(sc, n, netsim.ModeChip, classRaw, loss)
		t.AddRow(fmt.Sprintf("%.0e", loss),
			f1(beChip.Mean()), f1(beHost.Mean()), f1(rChip.Mean()), f1(rHost.Mean()), f1(raw.Mean()))
	}
	t.Notes = append(t.Notes,
		"expected shape: flat below ~1e-5, rising beyond as lost beacons stall barriers and reliable retransmissions stall commits")
	return t
}
