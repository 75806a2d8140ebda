package experiments

import (
	"onepipe/internal/core"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

// Fig11 regenerates the receiver reorder-overhead experiment: delivery
// latency is inflated artificially (the barrier holdback knob) and the
// sustained per-process throughput and peak reorder-buffer memory are
// measured.
func Fig11(sc Scale) *Table {
	t := &Table{
		ID: "11", Title: "Reorder overhead on a host vs. added delivery latency",
		Columns: []string{"holdback_us", "tput_per_proc_Mmsg_s", "max_buffer_MB"},
	}
	n := 16
	for _, holdUs := range []int64{0, 1, 5, 25, 125} {
		hold := sim.Time(holdUs) * sim.Microsecond
		cl := deploy(n, nil, func(c *core.Config) {
			c.DeliveryHoldback = hold
			c.DisableBEAck = true // isolate receive-path overhead
		})
		m := newMeter(cl)
		const offered = 4e6
		drivePump(cl, workload.NewRoundRobin(n, sim.Time(1e9/offered), 1024, false), false)
		window := sc.Window + 2*hold
		m.window(cl.Net.Eng, sc.Warmup+2*hold, window)
		maxBuf := int64(0)
		for _, h := range cl.Hosts {
			if h.Stats.MaxBufferBytes > maxBuf {
				maxBuf = h.Stats.MaxBufferBytes
			}
		}
		tput := float64(m.delivered) / window.Seconds() / float64(n)
		t.AddRow(f1(float64(holdUs)), fm(tput), f2(float64(maxBuf)/1e6))
	}
	t.Notes = append(t.Notes,
		"expected shape: throughput roughly flat; buffer memory grows linearly with delivery latency (BDP), a few MB at 125us")
	return t
}
