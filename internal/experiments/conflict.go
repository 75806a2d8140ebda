package experiments

import (
	"fmt"
	"math/rand"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// runConflictRace drives a steady random-destination workload in the given
// delivery mode, tagging each scattering with a nonzero conflict key with
// probability rate, and reports post-warmup throughput (messages/s) and
// delivery latency. The RNG stream is mode-independent, so the conflict-
// aware and unified runs of one rate race identical traffic.
func runConflictRace(sc Scale, n int, mode core.DeliveryMode, rate float64) (thr float64, lat stats.Sample) {
	cl := deploy(n, nil, func(c *core.Config) { c.Mode = mode })
	eng := cl.Net.Eng
	m := newMeter(cl)
	rng := rand.New(rand.NewSource(7))
	interval := 4 * sim.Microsecond
	stop := sc.Warmup + sc.Window
	var loop func(pi int)
	loop = func(pi int) {
		if eng.Now() >= stop {
			return
		}
		dst := netsim.ProcID(rng.Intn(n))
		if int(dst) == pi {
			dst = netsim.ProcID((pi + 1) % n)
		}
		var key uint32
		if rng.Float64() < rate {
			key = 1 + uint32(rng.Intn(8))
		}
		_ = cl.Procs[pi].SendOpts(
			[]core.Message{{Dst: dst, Data: eng.Now(), Size: 128}},
			core.SendOptions{ConflictKey: key})
		eng.After(interval, func() { loop(pi) })
	}
	for pi := 0; pi < n; pi++ {
		pi := pi
		eng.After(sim.Time(rng.Int63n(int64(interval)))+sim.Microsecond, func() { loop(pi) })
	}
	// Deliveries at Warmup and later count. RunFor runs the events at its
	// deadline, so the warm-up ends 1 ns early.
	m.window(eng, sc.Warmup-1, stop+sim.Millisecond-(sc.Warmup-1))
	return float64(m.delivered) / (float64(sc.Window+sim.Millisecond) / float64(sim.Second)), m.lat[classBE]
}

// Conflict is the conflict-aware ablation: DeliverConflictAware raced
// against DeliverUnified on identical workloads while the fraction of
// conflict-tagged scatterings sweeps 0% -> 100%. At 100% the mode
// degenerates to the unified order (same waits, same numbers within noise);
// at 0% every delivery is relaxed and mean latency approaches the 0.5 RTT
// floor, which is the win the Generic Multicast relaxation buys workloads
// that can declare their conflicts.
func Conflict(sc Scale) *Table {
	t := &Table{
		ID: "conflict", Title: "Conflict-aware ablation: latency (us) and throughput vs. conflict rate",
		Columns: []string{"rate", "CA-mean", "CA-p99", "CA-Mmsg/s", "Uni-mean", "Uni-p99", "Uni-Mmsg/s"},
	}
	n := sc.MaxProcs
	if n > 32 {
		n = 32
	}
	for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1} {
		caThr, caLat := runConflictRace(sc, n, core.DeliverConflictAware, rate)
		uThr, uLat := runConflictRace(sc, n, core.DeliverUnified, rate)
		t.AddRow(fmt.Sprintf("%.0f%%", rate*100),
			f1(caLat.Mean()), f1(caLat.Percentile(99)), fm(caThr),
			f1(uLat.Mean()), f1(uLat.Percentile(99)), fm(uThr))
	}
	t.Notes = append(t.Notes,
		"expected shape: CA-mean rises with conflict rate toward the unified column; at 100% the two modes coincide (degeneracy); unified columns are rate-independent within noise")
	return t
}
