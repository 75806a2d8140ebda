package main

// metricDef names one reported metric. The end-to-end table is the single
// source BENCHMARK.json must agree with (TestManifestMatchesTables checks
// it), and the table -compare applies.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // allowed worsening as a share of the base; 0 for per-layer metrics
}

// Time bases: wall_* and allocs/mem/setup are host measurements (noisy,
// bounded); sim_* are simulated nanoseconds or counts of the modelled
// fabric and repeat exactly for a fixed (-seed, -seconds).
var endToEnd = []metricDef{
	{"wall_msgs_per_s", "msgs/s", true, 0.25},
	{"sim_events_per_msg", "events/msg", false, 0.03},
	{"sim_p50_us", "us", false, 0.10},
	{"sim_p99_us", "us", false, 0.25},
	{"sim_goodput_msgs_per_s", "msgs/s", true, 0.03},
	{"sim_pkts_per_msg", "packets/msg", false, 0.03},
	{"allocs_per_msg", "allocs/msg", false, 0.03},
	{"mem_live_heap_mb", "MiB", false, 0.08},
	{"setup_s", "s", false, 0.25},
}

var perLayer = []metricDef{
	{name: "run.failed_share", unit: "share"},
	{name: "run.wall_spread_share", unit: "share"},
	{name: "sim.events_per_wall_s", unit: "1/s", higher: true},
	{name: "sim.pending_mean", unit: "events"},
	{name: "sim.probe_ns_per_event", unit: "ns"},
	{name: "sim.probe_ns_per_event_shallow", unit: "ns"},
	{name: "sim.probe_ns_per_event_idle", unit: "ns"},
	{name: "sim.probe_allocs_per_event", unit: "allocs"},
	{name: "netsim.data_pkts_per_msg", unit: "packets/msg"},
	{name: "netsim.ack_pkts_per_msg", unit: "packets/msg"},
	{name: "netsim.beacon_pkts_per_msg", unit: "packets/msg"},
	{name: "netsim.commit_pkts_per_msg", unit: "packets/msg"},
	{name: "netsim.nak_pkts_per_msg", unit: "packets/msg"},
	{name: "netsim.bytes_per_msg", unit: "bytes/msg"},
	{name: "netsim.beacon_byte_share", unit: "share"},
	{name: "netsim.queue_drops", unit: "count"},
	{name: "netsim.corrupt_drops", unit: "count"},
	{name: "netsim.ecn_marks", unit: "count"},
	{name: "netsim.probe_path_ns_per_pkt", unit: "ns"},
	{name: "netsim.probe_events_per_pkt", unit: "events"},
	{name: "netsim.probe_allocs_per_pkt", unit: "allocs"},
	{name: "netsim.probe_beacon_ns_per_link_tick", unit: "ns"},
	{name: "netsim.probe_beacon_events_per_link_tick", unit: "events"},
	{name: "wire.probe_encode_ns", unit: "ns"},
	{name: "wire.probe_decode_ns", unit: "ns"},
	{name: "wire.probe_frame_parse_ns_per_entry", unit: "ns"},
	{name: "wire.probe_allocs_per_pkt", unit: "allocs"},
	{name: "wire.header_bytes", unit: "bytes"},
	{name: "core.frame_occupancy_mean", unit: "msgs/frame", higher: true},
	{name: "core.deliver_batch_mean", unit: "msgs/batch", higher: true},
	{name: "core.beacons_suppressed_share", unit: "share", higher: true},
	{name: "core.retx_per_data_pkt", unit: "share"},
	{name: "core.naks_per_msg", unit: "naks/msg"},
	{name: "core.dup_pkts_per_msg", unit: "packets/msg"},
	{name: "core.backpressure_refusals", unit: "count"},
	{name: "core.reorder_max_bytes", unit: "bytes"},
	{name: "core.reorder_hot_max", unit: "entries"},
	{name: "core.conns_live", unit: "count"},
	{name: "core.probe_send_ns_per_msg", unit: "ns"},
	{name: "core.probe_send_allocs_per_msg", unit: "allocs"},
	{name: "core.probe_flush_ns_per_msg", unit: "ns"},
	{name: "core.probe_send_rel_ns_per_msg", unit: "ns"},
	{name: "core.probe_recv_ns_per_msg", unit: "ns"},
	{name: "core.probe_recv_allocs_per_msg", unit: "allocs"},
	{name: "core.probe_recv_rel_ns_per_msg", unit: "ns"},
	{name: "core.probe_ack_ns_per_msg", unit: "ns"},
	{name: "onepipe.send_call_ns_per_msg", unit: "ns"},
	{name: "onepipe.send_call_share", unit: "share"},
	{name: "onepipe.deliver_cb_ns_per_msg", unit: "ns"},
	{name: "serve.msgs_per_req", unit: "msgs/req"},
	{name: "serve.retry_share", unit: "share"},
	{name: "serve.applied_ops_per_req", unit: "ops/req"},
	{name: "serve.residual_ns_per_req", unit: "ns"},
	{name: "workload.gen_ns_per_intent", unit: "ns"},
	{name: "workload.lag_max_ns", unit: "ns"},
	{name: "model.layer_sum_share", unit: "share"},
	{name: "trace.overhead_share", unit: "share"},
}

// metricValue is the wire form of one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds the reported map for one table, failing loudly if a
// value is missing so a new table row cannot be silently unreported.
func metricSet(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("benchmark: no value computed for metric " + d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}
