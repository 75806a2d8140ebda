package experiments

import (
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// runQueueingProbe measures BE and reliable delivery latency while
// background flows load the fabric.
func runQueueingProbe(sc Scale, n int, flowsPerHost int, oversub float64) (be, rel stats.Sample) {
	cl := deploy(n, func(c *netsim.Config) {
		c.Mode = netsim.ModeHostDelegate // the paper's Fig. 12 uses host representatives
		c.Oversub = oversub
	}, nil)
	nh := len(cl.Net.G.Hosts)
	// Background flows: 4KB message streams between host pairs, pushed
	// through the 1Pipe transport so DCTCP congestion control paces them
	// (the paper's background load is TCP). Aggregate offered load is held
	// near 40% of host bandwidth so the fabric queues without collapsing —
	// the regime the paper's latency-inflation numbers come from.
	var flows []workload.Source
	for h := 0; h < nh; h++ {
		for f := 0; f < flowsPerHost; f++ {
			src := h * cl.Net.Cfg.ProcsPerHost
			dst := ((h + nh/2 + f) % nh) * cl.Net.Cfg.ProcsPerHost
			gap := sim.Time(800*flowsPerHost) * sim.Nanosecond
			phase := sim.Time(h*131+f*37) * sim.Nanosecond
			flows = append(flows, workload.NewFixedStream(src, []int{dst}, gap, phase, 4096, workload.SendOpts{}))
		}
	}
	if len(flows) > 0 {
		// Unstamped: probes carry the send-time payload, background must not.
		drivePump(cl, workload.Merge(flows...), false)
	}
	s := probes{count: 80, start: sc.Warmup, gap: 31 * sim.Microsecond,
		m: 13, step: 701 * sim.Nanosecond, a: 5, b: 7, classes: []class{classBE, classRel}}
	tail := 3 * sim.Millisecond
	if sc.MaxProcs <= 16 { // bench scale: keep the sweep affordable
		s.count, tail = 30, 1500*sim.Microsecond
	}
	m := runProbes(cl, s, s.end()+tail)
	return m.lat[classBE], m.lat[classRel]
}

// latOrDash formats a latency sample, showing "-" when no probe of that
// class completed.
func latOrDash(s *stats.Sample) string {
	if s.N() == 0 {
		return "-"
	}
	return f1(s.Mean())
}

// Fig12a regenerates latency vs. background flow count.
func Fig12a(sc Scale) *Table {
	t := &Table{
		ID: "12a", Title: "Delivery latency (us) vs. background flows per host",
		Columns: []string{"flows", "BE-host", "R-host"},
	}
	n := 32
	if n > sc.MaxProcs {
		n = sc.MaxProcs
	}
	for _, flows := range []int{0, 2, 4, 6, 8, 10} {
		be, rel := runQueueingProbe(sc, n, flows, 1)
		t.AddRow(f1(float64(flows)), latOrDash(&be), latOrDash(&rel))
	}
	t.Notes = append(t.Notes, "expected shape: latency inflates with background load (queueing); R above BE")
	return t
}

// Fig12b regenerates latency vs. core oversubscription ratio.
func Fig12b(sc Scale) *Table {
	t := &Table{
		ID: "12b", Title: "Delivery latency (us) vs. oversubscription ratio",
		Columns: []string{"oversub", "BE-host", "R-host"},
	}
	n := 32
	if n > sc.MaxProcs {
		n = sc.MaxProcs
	}
	for _, ratio := range []float64{1, 2, 3, 4, 5, 6} {
		be, rel := runQueueingProbe(sc, n, 2, ratio)
		t.AddRow(f1(ratio), latOrDash(&be), latOrDash(&rel))
	}
	t.Notes = append(t.Notes, "expected shape: latency grows with oversubscription (core queueing)")
	return t
}
