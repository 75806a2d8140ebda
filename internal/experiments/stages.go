package experiments

import (
	"fmt"

	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// runStages drives the Fig. 9a idle-system probe workload with lifecycle
// tracing armed on every host and the in-network gauges sampling, and
// returns the merged histogram set.
func runStages(sc Scale, n int, reliable bool) [obs.NumSpans]stats.Histogram {
	cl := deploy(n, nil, nil)
	traces := cl.EnableTracing()
	netTrace := cl.Net.EnableObs(0)
	s := idleProbes(sc, classOf(reliable))
	runProbes(cl, s, s.end()+2*sim.Millisecond)
	return obs.Merge(append(traces, netTrace)...)
}

// Stages decomposes delivery latency into lifecycle spans — the breakdown
// behind Figs. 9/10: how much of the end-to-end latency is credit wait,
// ACK wait (the 2PC prepare phase) and barrier wait, plus the sampled
// in-network gauges (switch barrier lag, egress queue depth).
func Stages(sc Scale) *Table {
	t := &Table{
		ID: "stages", Title: "Per-stage latency decomposition (us)",
		Columns: []string{"class", "span", "count", "mean", "p50", "p95", "p99", "max"},
	}
	n := 32
	if n > sc.MaxProcs {
		n = sc.MaxProcs
	}
	for _, class := range []struct {
		name     string
		reliable bool
	}{{"best-effort", false}, {"reliable", true}} {
		hists := runStages(sc, n, class.reliable)
		for _, s := range obs.Summarize(hists) {
			t.AddRow(class.name, s.Span, fmt.Sprintf("%d", s.Count),
				f2(s.MeanU), f2(s.P50U), f2(s.P95U), f2(s.P99U), f2(s.MaxU))
		}
	}
	t.Notes = append(t.Notes,
		"e2e = net-transit + barrier-wait; reliable adds ack-wait (2PC prepare) to the barrier path",
		"switch-lag-*/switch-qdepth are periodic in-network gauges, not per-message spans")
	return t
}
