package experiments

import (
	"fmt"
	"slices"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
	"onepipe/internal/workload"
)

// SLORow is one raced config's percentile outcome under the reference
// trace + impairment profile. Latencies are microseconds.
type SLORow struct {
	Config    string
	Delivered int
	P50       float64
	P99       float64
	P999      float64
}

// sloProcs picks the fabric size for the SLO race.
func sloProcs(sc Scale) int {
	if sc.MaxProcs >= 64 {
		return 64
	}
	return sc.MaxProcs
}

// sloSource builds the reference workload: a Zipf-skewed, ETC-heavy-tailed
// synthetic stream with a diurnal rate ramp, merged with periodic incast
// bursts at a victim. Fully seeded — every run regenerates the same trace.
func sloSource(n int, until sim.Time) workload.Source {
	base := workload.NewSynthetic(workload.SyntheticConfig{
		Procs:        n,
		MeanGap:      300 * sim.Nanosecond,
		Fanout:       2,
		Size:         workload.ETCSize,
		ZipfTheta:    0.99,
		ReliableFrac: 0.3,
		Rate:         workload.Diurnal(until, 0.6, 1.8),
		Stop:         until,
		Seed:         20260808,
	})
	incast := workload.NewIncast(n, 0, 6, 25*sim.Microsecond, 256, 0, until)
	return workload.Merge(base, incast)
}

// sloProfile is the reference impairment profile: switch-variance jitter
// everywhere, Gilbert-Elliott burst loss on host access links, and a
// WAN-ish RTT class on the core tier. Deliberately no ReorderRate: the
// barrier algebra assumes per-link FIFO (§4.1), and the SLO race measures
// the stack under conditions it is specified for.
func sloProfile() *netsim.Profile {
	jit := 150 * sim.Nanosecond
	access := &netsim.Impairment{Jitter: jit, GE: netsim.BurstLoss(0.002, 6)}
	wan := &netsim.Impairment{Jitter: jit, ExtraDelay: 1 * sim.Microsecond}
	return &netsim.Profile{
		Default: &netsim.Impairment{Jitter: jit},
		ByKind: map[topology.LinkKind]*netsim.Impairment{
			topology.LinkHostUp:        access,
			topology.LinkTorHostDown:   access,
			topology.LinkSpineCoreUp:   wan,
			topology.LinkCoreSpineDown: wan,
		},
	}
}

// RunSLO races batched / unbatched / conflict-aware endpoint configs under
// one trace and one impairment profile, reporting delivery-latency
// percentiles from streaming histograms. The reference source is drained
// into a slice once and replayed verbatim for each config, so the configs
// see identical offered load; the unbatched config sends every intent
// with the per-send Unbatched option.
func RunSLO(sc Scale) []SLORow {
	n := sloProcs(sc)
	until := sc.Warmup + sc.Window
	var trace []workload.Intent
	for src := sloSource(n, until); ; {
		it, ok := src.Next()
		if !ok {
			break
		}
		trace = append(trace, it)
	}
	configs := []struct {
		name      string
		mode      core.DeliveryMode
		unbatched bool
	}{
		{"batched", core.DeliverSeparate, false},
		{"unbatched", core.DeliverSeparate, true},
		{"conflict-aware", core.DeliverConflictAware, false},
	}
	rows := make([]SLORow, 0, len(configs))
	for _, cc := range configs {
		cl := deploy(n, func(nc *netsim.Config) { nc.Impair = sloProfile() },
			func(c *core.Config) { c.Mode = cc.mode })
		its := trace
		if cc.unbatched {
			its = slices.Clone(trace)
			for i := range its {
				its[i].Opts.Unbatched = true
			}
		}
		eng := cl.Net.Eng
		var hist stats.Histogram
		measuring := false
		delivered := 0
		for _, p := range cl.Procs {
			p.OnDeliver = func(d core.Delivery) {
				if !measuring {
					return
				}
				delivered++
				if sent, ok := d.Data.(sim.Time); ok {
					hist.Add(float64(eng.Now() - sent)) // ns
				}
			}
		}
		drivePump(cl, workload.NewReplay(its), true)
		eng.RunFor(sc.Warmup)
		measuring = true
		eng.RunFor(sc.Window + quiesceSLO)
		measuring = false
		rows = append(rows, SLORow{
			Config:    cc.name,
			Delivered: delivered,
			P50:       hist.Percentile(50) / 1000,
			P99:       hist.Percentile(99) / 1000,
			P999:      hist.Percentile(99.9) / 1000,
		})
	}
	return rows
}

// quiesceSLO lets in-flight scatterings (including loss-triggered
// retransmissions) finish delivering after the trace ends, so delivered
// counts are a determinism check, not a race with the window edge.
const quiesceSLO = 200 * sim.Microsecond

// SLO regenerates the -fig slo table.
func SLO(sc Scale) *Table {
	t := &Table{
		ID:      "slo",
		Title:   "Delivery latency SLO race: one trace + impairment profile, three configs",
		Columns: []string{"config", "delivered", "p50(us)", "p99(us)", "p999(us)"},
	}
	for _, r := range RunSLO(sc) {
		t.AddRow(r.Config, fmt.Sprintf("%d", r.Delivered), f2(r.P50), f2(r.P99), f2(r.P999))
	}
	t.Notes = append(t.Notes,
		"workload: Zipf-skewed dsts (theta .99), ETC heavy-tailed sizes, diurnal ramp, 6-way incasts; drained once and replayed per config",
		"impairments: 150ns jitter fabric-wide, Gilbert-Elliott burst loss (0.2%, mean burst 6) on access links, +1us RTT class on the core tier; no reordering (the barrier algebra assumes per-link FIFO)")
	return t
}
