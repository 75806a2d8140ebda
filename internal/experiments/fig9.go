package experiments

import (
	"fmt"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// runLatencyProbe measures idle-system delivery latency: sparse probe
// messages between random process pairs, phases decorrelated from the
// beacon interval.
func runLatencyProbe(sc Scale, n int, mode netsim.Mode, reliable, ordered bool, loss float64) stats.Sample {
	cl := deploy(n, func(c *netsim.Config) {
		c.Mode = mode
		c.Impair = netsim.UniformLoss(loss)
	}, nil)
	eng := cl.Net.Eng
	var lat stats.Sample
	if ordered {
		for _, p := range cl.Procs {
			p.OnDeliver = func(d core.Delivery) {
				if sent, ok := d.Data.(sim.Time); ok {
					lat.Add(float64(eng.Now()-sent) / 1000)
				}
			}
		}
	} else {
		for _, p := range cl.Procs {
			p.OnRaw = func(src netsim.ProcID, data any) {
				if sent, ok := data.(sim.Time); ok {
					lat.Add(float64(eng.Now()-sent) / 1000)
				}
			}
		}
	}
	probes := 120
	for i := 0; i < probes; i++ {
		i := i
		at := sc.Warmup + sim.Time(i)*7*sim.Microsecond + sim.Time(i%11)*531*sim.Nanosecond
		eng.At(at, func() {
			src := cl.Procs[i%n]
			dst := netsim.ProcID((i*7 + 3) % n)
			if int(dst) == i%n {
				dst = netsim.ProcID((int(dst) + 1) % n)
			}
			switch {
			case !ordered:
				src.SendRaw(dst, eng.Now(), 64)
			case reliable:
				src.SendOpts([]core.Message{{Dst: dst, Data: eng.Now(), Size: 64}}, core.SendOptions{Reliable: true})
			default:
				src.Send([]core.Message{{Dst: dst, Data: eng.Now(), Size: 64}})
			}
		})
	}
	eng.RunFor(sc.Warmup + sim.Time(probes)*7*sim.Microsecond + 2*sim.Millisecond)
	return lat
}

// Fig9a regenerates idle-system delivery latency across variants.
func Fig9a(sc Scale) *Table {
	t := &Table{
		ID: "9a", Title: "Delivery latency (us): mean [p5, p95]",
		Columns: []string{"procs", "BE-chip", "BE-host", "R-chip", "R-host", "unordered"},
	}
	for _, n := range procSweep(sc, []int{8, 16, 32, 512}) {
		beChip := runLatencyProbe(sc, n, netsim.ModeChip, false, true, 0)
		beHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, false, true, 0)
		rChip := runLatencyProbe(sc, n, netsim.ModeChip, true, true, 0)
		rHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, true, true, 0)
		raw := runLatencyProbe(sc, n, netsim.ModeChip, false, false, 0)
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
		beChip := runLatencyProbe(sc, n, netsim.ModeChip, false, true, loss)
		beHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, false, true, loss)
		rChip := runLatencyProbe(sc, n, netsim.ModeChip, true, true, loss)
		rHost := runLatencyProbe(sc, n, netsim.ModeHostDelegate, true, true, loss)
		raw := runLatencyProbe(sc, n, netsim.ModeChip, false, false, loss)
		t.AddRow(fmt.Sprintf("%.0e", loss),
			f1(beChip.Mean()), f1(beHost.Mean()), f1(rChip.Mean()), f1(rHost.Mean()), f1(raw.Mean()))
	}
	t.Notes = append(t.Notes,
		"expected shape: flat below ~1e-5, rising beyond as lost beacons stall barriers and reliable retransmissions stall commits")
	return t
}
