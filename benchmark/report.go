package main

import (
	"fmt"
	"io"
	"math"

	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// units is what was completed in the fixed window: delivered messages, or
// requests on serve-kv.
func (res *result) units() float64 { return float64(res.last.done - res.first.done) }

// wallNsPerUnit is the measured host cost of one unit over the fixed window.
func (res *result) wallNsPerUnit() float64 { return ratio(float64(res.fixedWall), res.units()) }

// endToEndValues computes the end-to-end metrics of one untraced run.
func endToEndValues(res *result, setups []float64) map[string]float64 {
	d := res.units()
	a, b := &res.first, &res.last
	return map[string]float64{
		"wall_msgs_per_s":        fastest(res.segRate),
		"sim_events_per_msg":     ratio(float64(b.events-a.events), d),
		"sim_p50_us":             percentile(res.lat, 50),
		"sim_p99_us":             percentile(res.lat, 99),
		"sim_goodput_msgs_per_s": ratio(d, res.window.Seconds()),
		"sim_pkts_per_msg":       ratio(float64(b.pkts()-a.pkts()), d),
		"allocs_per_msg":         ratio(float64(res.mallocs), d),
		"mem_live_heap_mb":       res.heapMB,
		"setup_s":                median(setups),
	}
}

// fastest is the wall rate a run reports: its fastest segment. On a shared
// host interference only ever slows a segment down, and between runs the
// fastest segment repeats better than the median one (half the spread on the
// reference box); what it hides — collections the fastest segment dodged —
// allocs_per_msg reports directly.
func fastest(rates []float64) float64 {
	best := 0.0
	for _, r := range rates {
		best = math.Max(best, r)
	}
	return best
}

// wallSpread is the run's own noise estimate: (max − min) ÷ median of the
// segments' rates.
func wallSpread(rates []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rates {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	return ratio(hi-lo, median(rates))
}

// counterValues computes the per-layer metrics counted on the workload from
// public counters (kind W): exact for a fixed seed and window.
func counterValues(res *result) map[string]float64 {
	a, b := &res.first, &res.last
	d := res.units()
	r := res.run
	kind := func(k netsim.Kind) float64 { return float64(b.net.PktsByKind[k] - a.net.PktsByKind[k]) }
	var bytes float64
	for k := range b.net.BytesByKind {
		bytes += float64(b.net.BytesByKind[k] - a.net.BytesByKind[k])
	}
	beaconBytes := float64(b.net.BytesByKind[netsim.KindBeacon] - a.net.BytesByKind[netsim.KindBeacon])
	cs := func(f func(s *snap) uint64) float64 { return float64(f(b) - f(a)) }
	beacons := cs(func(s *snap) uint64 { return s.core.Beacons })
	suppressed := cs(func(s *snap) uint64 { return s.core.BeaconsSuppressed })
	v := map[string]float64{}
	for _, def := range perLayer {
		v[def.name] = 0 // not applicable on this workload unless set below
	}
	for name, val := range map[string]float64{
		"run.failed_share":              ratio(float64(res.failed), float64(res.attempted)),
		"run.wall_spread_share":         wallSpread(res.segRate),
		"sim.events_per_wall_s":         ratio(float64(b.events-a.events), res.fixedWall.Seconds()),
		"sim.pending_mean":              ratio(float64(r.pendSum), float64(r.pendN)),
		"netsim.data_pkts_per_msg":      ratio(kind(netsim.KindData), d),
		"netsim.ack_pkts_per_msg":       ratio(kind(netsim.KindAck), d),
		"netsim.beacon_pkts_per_msg":    ratio(kind(netsim.KindBeacon), d),
		"netsim.commit_pkts_per_msg":    ratio(kind(netsim.KindCommit), d),
		"netsim.nak_pkts_per_msg":       ratio(kind(netsim.KindNak), d),
		"netsim.bytes_per_msg":          ratio(bytes, d),
		"netsim.beacon_byte_share":      ratio(beaconBytes, bytes),
		"netsim.queue_drops":            float64(b.net.QueueDrop - a.net.QueueDrop),
		"netsim.corrupt_drops":          float64(b.net.CorruptDrop - a.net.CorruptDrop),
		"netsim.ecn_marks":              float64(b.net.ECNMarks - a.net.ECNMarks),
		"core.frame_occupancy_mean":     ratio(b.occSum[0]-a.occSum[0], b.occN[0]-a.occN[0]),
		"core.deliver_batch_mean":       ratio(b.occSum[1]-a.occSum[1], b.occN[1]-a.occN[1]),
		"core.beacons_suppressed_share": ratio(suppressed, beacons+suppressed),
		"core.retx_per_data_pkt":        ratio(cs(func(s *snap) uint64 { return s.core.PktsRetx }), float64(b.fragments-a.fragments)),
		"core.naks_per_msg":             ratio(cs(func(s *snap) uint64 { return s.core.Naks }), d),
		"core.dup_pkts_per_msg":         ratio(cs(func(s *snap) uint64 { return s.core.DupPkts }), d),
		"core.backpressure_refusals":    cs(func(s *snap) uint64 { return s.core.Backpressure }),
		"core.reorder_max_bytes":        float64(b.core.MaxBufferBytes),
		"core.reorder_hot_max":          float64(b.core.ReorderHotMax),
		"core.conns_live":               float64(b.core.ConnsLive),
		"workload.lag_max_ns":           float64(r.lagMax),
		"wire.header_bytes":             wire.HeaderLen,
	} {
		v[name] = val
	}
	if r.def.closedLoop() {
		// With retries off (DefaultConfig) a request enters the fabric once,
		// so re-issues and losses both show as issued − completed.
		v["serve.msgs_per_req"] = ratio(cs(func(s *snap) uint64 { return s.core.MsgsSent }), d)
		v["serve.retry_share"] = ratio(float64(res.failed), float64(res.attempted))
		v["serve.applied_ops_per_req"] = ratio(float64(b.applied-a.applied), d)
		// The tier is driven by its own timers and the fabric carries its
		// messages, so per "data fragment" means per message sent here.
		v["core.retx_per_data_pkt"] = ratio(cs(func(s *snap) uint64 { return s.core.PktsRetx }),
			cs(func(s *snap) uint64 { return s.core.MsgsSent }))
	}
	return v
}

// probeSet holds every probe's outcome for one traced run.
type probeSet struct {
	deepNs, shallowNs, idleNs, engineAllocs float64
	path                                    pathProbe
	beacon                                  beaconProbe
	wire                                    wireProbe
	core                                    coreProbe
}

// Heap depths of the engine probes. The idle depth is what a quiescent
// fabric holds; it nets the engine's share out of the netsim path probe.
const (
	probeDeep    = 4096
	probeShallow = 64
	probeIdle    = 4
)

func runProbes(def *workloadDef) (probeSet, error) {
	var ps probeSet
	var err error
	ps.deepNs, ps.engineAllocs = probeEngine(probeDeep, 400000)
	ps.shallowNs, _ = probeEngine(probeShallow, 400000)
	ps.idleNs, _ = probeEngine(probeIdle, 400000)
	if ps.path, err = probePath(20000); err != nil {
		return ps, err
	}
	// The idle-fabric probe uses the workload's own topology, so the sparse
	// fabric gets its 512-host beacon plane and the testbed workloads theirs.
	ps.beacon = probeBeacons(def.topo)
	if ps.wire, err = probeWire(200000); err != nil {
		return ps, err
	}
	ps.core, err = probeCore(2000)
	return ps, err
}

// engineNs estimates the engine's cost per event at a heap depth from the
// probes that bracket it, linear in log depth (a heap's sift cost); beyond
// the deep probe the last slope is extended.
func (ps *probeSet) engineNs(depth float64) float64 {
	lerp := func(d0, c0, d1, c1 float64) float64 {
		return c0 + (c1-c0)*math.Log2(depth/d0)/math.Log2(d1/d0)
	}
	switch {
	case depth <= probeIdle:
		return ps.idleNs
	case depth <= probeShallow:
		return lerp(probeIdle, ps.idleNs, probeShallow, ps.shallowNs)
	default:
		return lerp(probeShallow, ps.shallowNs, probeDeep, ps.deepNs)
	}
}

func (ps *probeSet) values(v map[string]float64) {
	v["sim.probe_ns_per_event"] = ps.deepNs
	v["sim.probe_ns_per_event_shallow"] = ps.shallowNs
	v["sim.probe_ns_per_event_idle"] = ps.idleNs
	v["sim.probe_allocs_per_event"] = ps.engineAllocs
	v["netsim.probe_path_ns_per_pkt"] = ps.path.nsPerPkt
	v["netsim.probe_events_per_pkt"] = ps.path.eventsPerPkt
	v["netsim.probe_allocs_per_pkt"] = ps.path.allocsPerPkt
	v["netsim.probe_beacon_ns_per_link_tick"] = ps.beacon.nsPerLinkTick
	v["netsim.probe_beacon_events_per_link_tick"] = ps.beacon.eventsPerLinkTick
	v["wire.probe_encode_ns"] = ps.wire.encodeNs
	v["wire.probe_decode_ns"] = ps.wire.decodeNs
	v["wire.probe_frame_parse_ns_per_entry"] = ps.wire.frameParseNsPerEntry
	v["wire.probe_allocs_per_pkt"] = ps.wire.allocsPerPkt
	v["core.probe_send_ns_per_msg"] = ps.core.sendNs
	v["core.probe_send_allocs_per_msg"] = ps.core.sendAllocs
	v["core.probe_flush_ns_per_msg"] = ps.core.flushNs
	v["core.probe_send_rel_ns_per_msg"] = ps.core.sendRelNs
	v["core.probe_recv_ns_per_msg"] = ps.core.recvNs
	v["core.probe_recv_allocs_per_msg"] = ps.core.recvAllocs
	v["core.probe_recv_rel_ns_per_msg"] = ps.core.recvRelNs
	v["core.probe_ack_ns_per_msg"] = ps.core.ackNs
}

// layerRow is one row of the layer table: a count per completed unit, the
// probe's unit cost, and their product.
type layerRow struct {
	layer, what string
	perUnit, ns float64
	product     float64
	fromSpan    bool // product measured by spans in the traced run, not count × probe
}

// layerTable explains the measured wall ns per unit as a sum over layers.
// Counts come from the untraced run's counters, unit costs from the probes,
// span rows from the traced run. What the model does not explain is printed
// as the residual row, never hidden.
func layerTable(untraced, traced *result, tr *tracer, ps *probeSet, v map[string]float64) []layerRow {
	a, b := &untraced.first, &untraced.last
	d := untraced.units()
	dt := traced.units()
	r := untraced.run
	measured := untraced.wallNsPerUnit()

	events := ratio(float64(b.events-a.events), d)
	beacons := v["netsim.beacon_pkts_per_msg"]
	otherPkts := ratio(float64(b.pkts()-a.pkts()), d) - beacons
	sends := ratio(float64(b.core.MsgsSent-a.core.MsgsSent), d)
	deliveries := ratio(float64(b.core.MsgsDelivered-a.core.MsgsDelivered), d)
	relShare := ratio(float64(b.observed[1]-a.observed[1]), float64(b.deliveries()-a.deliveries()))
	depth := v["sim.pending_mean"]

	engine := ps.engineNs(depth)
	// The netsim probes ran on the engine too; take its share out so the
	// sim row is not counted twice.
	hopNs := math.Max(0, ps.path.nsPerPkt-ps.path.eventsPerPkt*ps.idleNs) / ps.path.hops
	beaconNs := math.Max(0, ps.beacon.nsPerBeacon-ps.beacon.eventsPerBeacon*ps.engineNs(ps.beacon.depth))
	sendNs := relShare*ps.core.sendRelNs + (1-relShare)*ps.core.sendNs
	recvNs := relShare*ps.core.recvRelNs + (1-relShare)*ps.core.recvNs

	span := func(k spanKind) float64 { return ratio(float64(tr.total[k]), dt) }
	rows := []layerRow{
		{layer: "sim", what: fmt.Sprintf("events (heap depth %.0f)", depth), perUnit: events, ns: engine},
		{layer: "netsim", what: "data/ack/commit/nak link transmissions", perUnit: otherPkts, ns: hopNs},
		{layer: "netsim", what: "beacon link transmissions", perUnit: beacons, ns: beaconNs},
		{layer: "core.send", what: fmt.Sprintf("messages sent (%.0f%% reliable)", 100*relShare), perUnit: sends, ns: sendNs},
		{layer: "core.send", what: "best-effort frames flushed by the doorbell timer", perUnit: sends * (1 - relShare), ns: ps.core.flushNs},
		{layer: "core.recv", what: "messages delivered", perUnit: deliveries, ns: recvNs},
		{layer: "core.recv", what: "messages ACKed", perUnit: sends, ns: ps.core.ackNs},
	}
	for i := range rows {
		rows[i].product = rows[i].perUnit * rows[i].ns
	}
	gen := layerRow{layer: "workload", what: "Source.Next spans", perUnit: ratio(float64(tr.count[spanNext]), dt), product: span(spanNext), fromSpan: true}
	facade := layerRow{layer: "onepipe", what: "Process.Send spans minus core.send", perUnit: ratio(float64(tr.count[spanSend]), dt),
		product: math.Max(0, span(spanSend)-sends*sendNs), fromSpan: true}
	deliver := layerRow{layer: "onepipe", what: "delivery callback spans (order oracle)", perUnit: ratio(float64(tr.count[spanDeliver]), dt),
		product: span(spanDeliver), fromSpan: true}
	if r.def.closedLoop() {
		deliver.layer, deliver.what = "serve", "tier dispatch spans (requests, replies)"
	}
	rows = append(rows, facade, deliver, gen)
	var sum float64
	for _, row := range rows {
		sum += row.product
	}
	rows = append(rows, layerRow{layer: "residual", what: "measured minus the rows above (timer and handler bodies, cache effects)",
		product: measured - sum, fromSpan: true})

	v["onepipe.send_call_ns_per_msg"] = ratio(float64(tr.total[spanSend]), float64(traced.last.sent-traced.first.sent))
	v["onepipe.send_call_share"] = ratio(float64(tr.total[spanSend]), float64(traced.fixedWall))
	v["onepipe.deliver_cb_ns_per_msg"] = ratio(float64(tr.total[spanDeliver]), float64(traced.last.deliveries()-traced.first.deliveries()))
	v["workload.gen_ns_per_intent"] = ratio(float64(tr.total[spanNext]), float64(tr.count[spanNext]))
	v["model.layer_sum_share"] = ratio(sum, measured)
	v["trace.overhead_share"] = ratio(traced.wallNsPerUnit(), measured) - 1
	if r.def.closedLoop() {
		v["serve.residual_ns_per_req"] = measured - sum
	}
	return rows
}

func printLayerTable(w io.Writer, def *workloadDef, rows []layerRow, measured float64) {
	unit := "msg"
	if def.closedLoop() {
		unit = "req"
	}
	fmt.Fprintf(w, "\nlayer table for %s: measured %.0f wall ns/%s (untraced fixed window)\n", def.name, measured, unit)
	fmt.Fprintf(w, "  %-10s %-58s %10s %10s %10s %7s\n", "layer", "what", "per "+unit, "ns each", "ns/"+unit, "share")
	for _, row := range rows {
		per, each := fmt.Sprintf("%.3f", row.perUnit), fmt.Sprintf("%.1f", row.ns)
		if row.fromSpan {
			each = "span"
			if row.layer == "residual" {
				per, each = "", ""
			}
		}
		fmt.Fprintf(w, "  %-10s %-58s %10s %10s %10.0f %6.1f%%\n", row.layer, row.what, per, each,
			row.product, 100*ratio(row.product, measured))
	}
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]metricValue) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, d := range defs {
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf(", regression bound %.0f%%", 100*d.bound)
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-12s (%s%s)\n", d.name, vals[d.name].Value, d.unit, dir, bound)
	}
}
