package experiments

import (
	"onepipe/internal/baseline"
	"onepipe/internal/core"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// opResult is one 1Pipe data point of Fig. 8.
type opResult struct {
	tputPerProc float64
	lat         stats.Sample
}

// runOnePipeBroadcast drives the Fig. 8 all-to-all pattern on the real
// 1Pipe stack: every process sends 64-byte messages round-robin to all
// peers (a broadcast sliced into scatterings), at the offered per-process
// rate.
func runOnePipeBroadcast(sc Scale, n int, reliable bool, offered float64) opResult {
	cl := deploy(n, nil, func(c *core.Config) {
		// Best-effort throughput runs measure the data path; per-message
		// loss-detection ACKs would double the packet count and saturate
		// host NICs at 512 processes (the paper's ACKs are not in the
		// reported message rate). Reliable runs keep ACKs: they ARE the
		// 2PC prepare phase.
		c.DisableBEAck = !reliable
	})
	m := newMeter(cl)
	// The broadcast schedule is a workload.Source now; RoundRobin emits the
	// exact (src, dst, at) sequence the per-process tickers used to produce
	// (pinned by workload's TestRoundRobinSchedule), so the figures are
	// unchanged.
	drivePump(cl, workload.NewRoundRobin(n, sim.Time(1e9/offered), 64, reliable), true)
	m.window(cl.Net.Eng, sc.Warmup, sc.Window)
	return opResult{
		tputPerProc: float64(m.delivered) / sc.Window.Seconds() / float64(n),
		lat:         m.lat[classOf(reliable)],
	}
}

var fig8Procs = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig8a regenerates the broadcast throughput comparison.
func Fig8a(sc Scale) *Table {
	t := &Table{
		ID: "8a", Title: "Throughput per process (M msg/s) vs. number of processes",
		Columns: []string{"procs", "1Pipe/BE", "1Pipe/R", "SwitchSeq", "HostSeq", "Token", "Lamport"},
	}
	const offered = 5e6
	for _, n := range procSweep(sc, fig8Procs) {
		be := runOnePipeBroadcast(sc, n, false, offered)
		rel := runOnePipeBroadcast(sc, n, true, offered)
		bcfg := baseline.DefaultConfig(n)
		bcfg.Duration = sc.Window
		sw := baseline.RunSwitchSeq(bcfg)
		ho := baseline.RunHostSeq(bcfg)
		tk := baseline.RunToken(bcfg)
		lp := baseline.RunLamport(bcfg)
		t.AddRow(f1(float64(n)),
			fm(be.tputPerProc), fm(rel.tputPerProc),
			fm(sw.TputPerProc), fm(ho.TputPerProc), fm(tk.TputPerProc), fm(lp.TputPerProc))
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe stays flat (linear total scaling); sequencers decay ~1/N past saturation; token ~1/N; Lamport decays with exchange overhead")
	return t
}

// Fig8b regenerates the broadcast latency comparison (low offered load).
func Fig8b(sc Scale) *Table {
	t := &Table{
		ID: "8b", Title: "Broadcast delivery latency (us) vs. number of processes",
		Columns: []string{"procs", "1Pipe/BE", "1Pipe/R", "SwitchSeq", "HostSeq", "Token", "Lamport"},
	}
	// Latency is measured at the throughput experiment's offered load, as
	// in the paper — this is what makes saturated sequencers soar.
	const offered = 5e6
	for _, n := range procSweep(sc, fig8Procs) {
		be := runOnePipeBroadcast(sc, n, false, offered)
		rel := runOnePipeBroadcast(sc, n, true, offered)
		bcfg := baseline.DefaultConfig(n)
		bcfg.Duration = sc.Window
		bcfg.OfferedPerProc = offered
		sw := baseline.RunSwitchSeq(bcfg)
		ho := baseline.RunHostSeq(bcfg)
		tk := baseline.RunToken(bcfg)
		lp := baseline.RunLamport(bcfg)
		t.AddRow(f1(float64(n)),
			f1(be.lat.Mean()), f1(rel.lat.Mean()),
			f1(sw.Latency.Mean()), f1(ho.Latency.Mean()), f1(tk.Latency.Mean()), f1(lp.Latency.Mean()))
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe grows slowly with hop count; token latency grows with ring size; Lamport bounded below by the exchange interval")
	return t
}
