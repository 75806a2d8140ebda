package experiments

import (
	"fmt"

	"onepipe/internal/core"
	"onepipe/internal/dsm"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
	"onepipe/internal/workload"
)

// incastStreams is the ablations' fan-in load as a Source: senders 0..n-1
// each stream size-byte messages to victim every gap, all in phase (the
// worst case for arrival order).
func incastStreams(n, victim int, gap sim.Time, size int) workload.Source {
	srcs := make([]workload.Source, n)
	for h := 0; h < n; h++ {
		srcs[h] = workload.NewFixedStream(h, []int{victim}, gap, 0, size, workload.SendOpts{})
	}
	return workload.Merge(srcs...)
}

// Hazards regenerates the §2.2.1 motivation as a table: write-after-write
// and IRIW ordering-hazard rates over an unordered transport versus 1Pipe,
// on a jittery multi-path fabric.
func Hazards(sc Scale) *Table {
	t := &Table{
		ID: "haz", Title: "Ordering hazards (§2.2.1): violations per 1000 trials",
		Columns: []string{"hazard", "raw transport", "1Pipe"},
	}
	run := func(tr dsm.Transport, iriw bool) float64 {
		cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
		cfg.Impair = netsim.UniformJitter(3 * sim.Microsecond)
		cl := core.Deploy(netsim.New(cfg), core.DefaultConfig())
		st := dsm.New(cl, tr)
		var res *dsm.HazardStats
		if iriw {
			res = st.RunIRIW(cl.Net.Eng, 500, 2*sim.Microsecond)
		} else {
			res = st.RunWAW(cl.Net.Eng, 500, 2*sim.Microsecond)
		}
		cl.Run(8 * sim.Millisecond)
		if res.Trials == 0 {
			return -1
		}
		return 1000 * float64(res.Violations) / float64(res.Trials)
	}
	t.AddRow("write-after-write", f1(run(dsm.TransportRaw, false)), f1(run(dsm.TransportOnePipe, false)))
	t.AddRow("IRIW", f1(run(dsm.TransportRaw, true)), f1(run(dsm.TransportOnePipe, true)))
	t.Notes = append(t.Notes, "1Pipe columns must be exactly 0 — total order makes the fences unnecessary")
	return t
}

// AblBarrier quantifies what barrier-based reordering buys over the naive
// alternative (§4.1): a receiver that simply drops out-of-timestamp-order
// arrivals loses the majority of messages under multi-path spraying.
func AblBarrier(sc Scale) *Table {
	t := &Table{
		ID: "abl-barrier", Title: "Ablation: barrier reordering vs. drop-out-of-order receiver",
		Columns: []string{"senders", "delivered% (barrier)", "delivered% (naive drop)"},
	}
	for _, senders := range []int{4, 8, 16} {
		// Naive: count in-order arrivals at the raw network level.
		netN := netsim.New(netsim.DefaultConfig(topology.Testbed(), 1))
		arr := countArrivals(netN, 31)
		driveRaw(netN, incastStreams(senders, 31, 300*sim.Nanosecond, 1024))
		netN.Eng.RunFor(1 * sim.Millisecond)
		naive := 100 * float64(arr.total-arr.ooo) / float64(arr.total)

		// Barrier-based: the full stack delivers everything, in order.
		cl := deploy(32, nil, nil)
		m := newMeter(cl)
		load := workload.Limit(incastStreams(senders, 31, 300*sim.Nanosecond, 1024), 500*sim.Microsecond)
		p := drivePump(cl, load, false)
		// Past the 500 us of load, run until every accepted send is
		// delivered, capped at 20 ms: 16 senders' incast backlog drains
		// past 2 ms, and a fixed 2 ms run counted what was still queued as
		// lost.
		cl.Run(2 * sim.Millisecond)
		for m.delivered < p.Sent && cl.Net.Eng.Now() < 20*sim.Millisecond {
			cl.Run(sim.Millisecond)
		}
		barrier := 100 * float64(m.delivered) / float64(p.Sent)
		t.AddRow(f1(float64(senders)), f1(barrier), f1(naive))
	}
	t.Notes = append(t.Notes,
		"§4.1: with 8 senders the paper measured 57% of arrivals out of order — naive dropping is untenable")
	return t
}

// AblRelay compares event-driven barrier relaying (this implementation)
// against the paper's literal per-link idle ticker: the ticker accumulates
// roughly one beacon interval of barrier lag per switch hop.
func AblRelay(sc Scale) *Table {
	t := &Table{
		ID: "abl-relay", Title: "Ablation: event-driven barrier relay vs. per-link ticker (BE latency, us)",
		Columns: []string{"procs", "event relay", "ticker only"},
	}
	measure := func(n int, disable bool) float64 {
		cl := deploy(n, func(c *netsim.Config) { c.DisableEventRelay = disable }, nil)
		m := runProbes(cl, ablProbes(80, 9*sim.Microsecond, 5, 3), 3*sim.Millisecond)
		return m.lat[classBE].Mean()
	}
	for _, n := range procSweep(sc, []int{8, 16, 32}) {
		t.AddRow(f1(float64(n)), f1(measure(n, false)), f1(measure(n, true)))
	}
	t.Notes = append(t.Notes,
		"ticker only: every switch hop waits for its next tick, one beacon interval per hop, and the barrier's path (ToR, spine, core and back) is the same five logical hops at every size of this sweep, so the column is flat, four intervals (12 us) above the event-driven relay — which is what achieves the paper's interval/2-style idle overhead (DESIGN.md deviation #1)")
	return t
}

// AblBeacon sweeps the beacon interval, exposing the latency/overhead
// trade-off behind the deployment's 3 μs choice (§4.2): delivery latency
// grows with the interval while beacon bandwidth shrinks inversely.
func AblBeacon(sc Scale) *Table {
	t := &Table{
		ID: "abl-beacon", Title: "Ablation: beacon interval vs. BE latency and beacon overhead",
		Columns: []string{"interval_us", "BE latency us", "beacon traffic %"},
	}
	n := 32
	if n > sc.MaxProcs {
		n = sc.MaxProcs
	}
	for _, usI := range []int64{1, 3, 10, 30} {
		cl := deploy(n, func(c *netsim.Config) {
			c.BeaconInterval = sim.Time(usI) * sim.Microsecond
		}, nil)
		pr := ablProbes(60, sim.Time(usI)*4*sim.Microsecond, 7, 5)
		dur := pr.end() + 2*sim.Millisecond
		m := runProbes(cl, pr, dur)
		// Overhead as a share of link capacity (as in Fig. 13b), not of
		// the probe traffic.
		links := float64(len(cl.Net.G.Links))
		bytesPerLinkPerSec := float64(cl.Net.Stats.BytesByKind[netsim.KindBeacon]) / links / dur.Seconds()
		frac := bytesPerLinkPerSec * 8 / (netsim.HostGbps * 1e9)
		t.AddRow(f1(float64(usI)), f1(m.lat[classBE].Mean()), fmt.Sprintf("%.4f", 100*frac))
	}
	t.Notes = append(t.Notes,
		"latency ≈ base + path + interval-bound quantization; overhead ∝ 1/interval — the 3us deployment choice balances both")
	return t
}

// AblECMP compares per-packet spraying against flow-hash ECMP under 1Pipe:
// spraying raises raw out-of-order arrivals sharply, yet end-to-end ordered
// delivery latency barely moves — the receiver reorder buffer absorbs the
// difference (the property that lets 1Pipe ride any multipath scheme,
// §4.1).
func AblECMP(sc Scale) *Table {
	t := &Table{
		ID: "abl-ecmp", Title: "Ablation: per-packet spraying vs. flow ECMP under 1Pipe",
		Columns: []string{"routing", "raw ooo fraction", "BE latency us"},
	}
	for _, flow := range []bool{false, true} {
		name := "spray"
		if flow {
			name = "flow-hash"
		}
		// Raw out-of-order measurement.
		cfg := netsim.DefaultConfig(topology.Testbed(), 1)
		cfg.FlowECMP = flow
		netN := netsim.New(cfg)
		arr := countArrivals(netN, 31)
		driveRaw(netN, incastStreams(8, 31, 250*sim.Nanosecond, 1024))
		netN.Eng.RunFor(1 * sim.Millisecond)

		// Ordered delivery latency on the full stack.
		cl := deploy(32, func(c *netsim.Config) { c.FlowECMP = flow }, nil)
		m := runProbes(cl, ablProbes(80, 9*sim.Microsecond, 7, 5), 3*sim.Millisecond)
		t.AddRow(name, fmt.Sprintf("%.2f", arr.oooShare()), f1(m.lat[classBE].Mean()))
	}
	t.Notes = append(t.Notes,
		"barrier reordering decouples delivery order from arrival order, so spraying costs almost nothing end to end")
	return t
}
