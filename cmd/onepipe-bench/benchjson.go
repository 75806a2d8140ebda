package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	onepipe "onepipe"
	"onepipe/internal/barrier"
	"onepipe/internal/core"
	"onepipe/internal/experiments"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
	"onepipe/internal/wire"
)

// benchResult is one micro-benchmark's figures in BENCH_core.json. Every row
// is measured medianRuns times and carries the median run, the number of
// runs and the fastest and slowest ns/op beside it.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	Runs        int     `json:"runs,omitempty"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchBaseline records the pre-optimization numbers the current figures
// are compared against in docs/performance.md. It is frozen by hand when a
// new baseline is deliberately established, never by `-bench-json` runs.
type benchBaseline struct {
	Note               string  `json:"note"`
	EngineNsPerOp      float64 `json:"engine_ns_per_op"`
	EngineAllocsPerOp  int64   `json:"engine_allocs_per_op"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	WireEncodeNsPerOp  float64 `json:"wire_encode_ns_per_op"`
	WireDecodeNsPerOp  float64 `json:"wire_decode_ns_per_op"`
}

// gateFloor is what -bench-gate enforces. Like the baseline it is set by
// hand — with a note of the machine and date it was sized on — and
// `-bench-json` copies it verbatim from the previous file, so re-capturing
// the report cannot move the gate.
type gateFloor struct {
	Note               string  `json:"note"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
}

// scaleBench is the 1024-host fabric wall-time row (experiments.FabricScaleOnce):
// the median of medianRuns runs with the fastest and slowest beside it.
type scaleBench struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	Runs       int     `json:"runs,omitempty"`
	WallSMin   float64 `json:"wall_s_min,omitempty"`
	WallSMax   float64 `json:"wall_s_max,omitempty"`
	Events     uint64  `json:"events"`
	WindowUs   float64 `json:"window_us"`
}

// rateSpread is the spread of an end-to-end rate measured medianRuns times;
// the median sits in the rate's own field.
type rateSpread struct {
	Runs int     `json:"runs"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// benchReport is the machine-readable performance contract: refreshed by
// `make bench-json`, gated by CI's bench-smoke job (engine events/sec must
// stay at or above the hand-pinned gate_floor).
type benchReport struct {
	Generated          string  `json:"generated"`
	GoVersion          string  `json:"go_version"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	// Scale1024 is the wall time of the 1024-host fabric scale workload
	// (the -fig scale row).
	Scale1024 *scaleBench `json:"scale_1024,omitempty"`
	// E2EMsgsPerSec and E2EUnbatchedMsgsPerSec are medians of medianRuns
	// runs, each with its spread beside it.
	E2EMsgsPerSec       float64     `json:"e2e_msgs_per_sec"`
	E2EMsgsPerSecSpread *rateSpread `json:"e2e_msgs_per_sec_spread,omitempty"`
	// E2EUnbatchedMsgsPerSec is the same workload with frame coalescing
	// and the delivery fast path off — the pre-batching wire behavior,
	// kept for the batching speedup comparison.
	E2EUnbatchedMsgsPerSec       float64           `json:"e2e_unbatched_msgs_per_sec,omitempty"`
	E2EUnbatchedMsgsPerSecSpread *rateSpread       `json:"e2e_unbatched_msgs_per_sec_spread,omitempty"`
	SendOccupancy                *occupancySummary `json:"send_frame_occupancy,omitempty"`
	RecvOccupancy                *occupancySummary `json:"recv_batch_occupancy,omitempty"`
	// SLO carries the -fig slo percentile rows (batched / unbatched /
	// conflict-aware under the reference trace + impairment profile) at
	// quick scale. The slo gate compares fresh p99s against these.
	SLO []experiments.SLORow `json:"slo,omitempty"`
	// Serve carries the -fig serve rows at quick scale: the closed-loop
	// KV client sweep, the tpcc-style mix, the fabric-SMR vs Raft
	// head-to-head, and the elastic Join/Drain timeline. The serve gate
	// compares fresh delivered counts (exact) and p99s against these.
	Serve []experiments.ServeRow `json:"serve,omitempty"`
	// ServeNotes records the elastic segment's self-asserted verdict
	// (RECOVERED/EXCEEDED) from the run that produced Serve.
	ServeNotes []string `json:"serve_notes,omitempty"`
	// IdlePairBytes is the live heap a settled (src, dst) pair keeps.
	IdlePairBytes *idlePairRow           `json:"idle_pair_bytes,omitempty"`
	Benchmarks    map[string]benchResult `json:"benchmarks"`
	Baseline      *benchBaseline         `json:"baseline,omitempty"`
	GateFloor     *gateFloor             `json:"gate_floor,omitempty"`
}

func toResult(r testing.BenchmarkResult) benchResult {
	return benchResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// medianRuns is how many times a median row is measured; the median is
// recorded with the min–max spread.
const medianRuns = 5

// medianRow measures bench medianRuns times and returns the median run with
// the spread of ns/op across the runs.
func medianRow(bench func() testing.BenchmarkResult) benchResult {
	rs := make([]benchResult, medianRuns)
	for i := range rs {
		rs[i] = toResult(bench())
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
	r := rs[medianRuns/2]
	r.Runs, r.NsPerOpMin, r.NsPerOpMax = medianRuns, rs[0].NsPerOp, rs[medianRuns-1].NsPerOp
	return r
}

// median returns the index of the median of vals and their spread.
func median(vals []float64) (int, *rateSpread) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return idx[len(idx)/2], &rateSpread{Runs: len(vals), Min: vals[idx[0]], Max: vals[idx[len(idx)-1]]}
}

func engineRow(lo, span int) benchResult {
	return medianRow(func() testing.BenchmarkResult { return benchEngine(lo, span) })
}

// benchEngine is the BenchmarkEngineSchedule shape: 4096 pending events,
// every executed one re-scheduling itself lo..lo+span-1 ns ahead. With
// delays of 1–1000 ns (all through the timing wheel) 1e9/ns_per_op is the
// engine events/sec figure; 5 000–105 000 ns is BenchmarkEngineScheduleFar,
// all filed at the coarse level and cascaded.
func benchEngine(lo, span int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		const depth = 4096
		var step func()
		step = func() {
			e.After(sim.Time(lo+e.Rand().Intn(span)), step)
		}
		for i := 0; i < depth; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

// benchTimer is the BenchmarkTimerArmCancel shape: 32 768 armed timers,
// either one stopped and re-armed per op (the ACK path) or the earliest
// fired through the engine and re-armed by its handler (the timeout path).
func benchTimer(fire bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		const depth = 32768
		delay := func() sim.Time { return sim.Time(e.Rand().Intn(100000)) + 1 }
		tms := make([]*sim.Timer, depth)
		for i := range tms {
			i := i
			tms[i] = sim.NewTimer(e, func() { tms[i].Reset(delay()) })
			tms[i].Reset(delay())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fire {
				e.Step()
				continue
			}
			tm := tms[i%depth]
			tm.Stop()
			tm.Reset(delay())
		}
	})
}

// benchBERound is one best-effort message from send to ACK on a warm
// two-host simulated fabric, beacons and all: the simulated send path's
// ns and allocations per message, timers included. Core lets go of a
// send's message slice once its last ACK is in, so every round reuses one.
func benchBERound() testing.BenchmarkResult {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
	cl := core.Deploy(netsim.New(cfg), core.DefaultConfig())
	delivered := 0
	cl.Proc(1).OnDeliverBatch = func(ds []core.Delivery) { delivered += len(ds) }
	msgs := []core.Message{{Dst: 1, Size: 64}}
	round := func() {
		if err := cl.Proc(0).Send(msgs); err != nil {
			panic(err)
		}
		cl.Run(4 * cfg.BeaconInterval)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	return testing.Benchmark(func(b *testing.B) {
		before := delivered
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round()
		}
		if delivered-before != b.N {
			b.Fatalf("%d of %d delivered", delivered-before, b.N)
		}
	})
}

// cableWire joins two hosts on one engine by a fixed-latency cable, so the
// queue holds nothing but their packets and timers — the wire of core's
// TestFirstContactAllocs.
type cableWire struct {
	eng  *sim.Engine
	peer *core.Host
	pool *netsim.Pool
}

func cableDeliver(h, pkt any) { h.(*core.Host).HandlePacket(pkt.(*netsim.Packet)) }

func (w *cableWire) Send(pkt *netsim.Packet) {
	w.eng.After2(400*sim.Nanosecond, cableDeliver, w.peer, pkt)
}
func (w *cableWire) Now() sim.Time               { return w.eng.Now() }
func (w *cableWire) After(d sim.Time, fn func()) { w.eng.After(d, fn) }
func (w *cableWire) TimerEngine() *sim.Engine    { return w.eng }
func (w *cableWire) PacketPool() *netsim.Pool    { return w.pool }

// peerHosts starts two cabled hosts on a fresh engine: process 0 on host 0
// sends, and host 1 holds the given number of never-contacted processes,
// each with a one-message send slice of its own (core keeps a send's
// slice) and a delivery counter.
func peerHosts(cfg core.Config, peers int, delivered *int) (*sim.Engine, *core.Proc, [][]core.Message) {
	eng := sim.NewEngine(1)
	pool := new(netsim.Pool)
	w0, w1 := &cableWire{eng: eng, pool: pool}, &cableWire{eng: eng, pool: pool}
	h0, h1 := core.NewHost(0, w0, cfg), core.NewHost(1, w1, cfg)
	w0.peer, w1.peer = h1, h0
	h0.Start()
	h1.Start()
	src := h0.AddProc(0)
	h1.AddProc(1)
	onBatch := func(ds []core.Delivery) { *delivered += len(ds) }
	flat := make([]core.Message, peers)
	msgs := make([][]core.Message, peers)
	for j := range flat {
		p := h1.AddProc(netsim.ProcID(2 + j))
		p.OnDeliverBatch = onBatch
		flat[j] = core.Message{Dst: p.ID, Size: 64}
		msgs[j] = flat[j : j+1 : j+1]
	}
	return eng, src, msgs
}

// benchFirstContact is the TestFirstContactAllocs shape: one best-effort
// message to a process its sender has never talked to, through delivery and
// the ACK, on two cabled hosts — the per-pair cost of connection state, with
// four beacon intervals of both hosts included. A host pair serves 4096
// first contacts; the next pair is built with the timer stopped.
func benchFirstContact() testing.BenchmarkResult {
	const peers = 4096
	cfg := core.DefaultConfig()
	return testing.Benchmark(func(b *testing.B) {
		var (
			eng       *sim.Engine
			src       *core.Proc
			msgs      [][]core.Message
			next      = peers
			delivered int
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if next == peers {
				b.StopTimer()
				eng, src, msgs = peerHosts(cfg, peers, &delivered)
				next = 0
				b.StartTimer()
			}
			if err := src.Send(msgs[next]); err != nil {
				b.Fatal(err)
			}
			next++
			eng.RunFor(4 * cfg.BeaconInterval)
		}
		if delivered != b.N {
			b.Fatalf("%d of %d delivered", delivered, b.N)
		}
	})
}

// idlePairRow is what a settled pair keeps on the heap: the
// TestIdlePairHeapFootprint measurement on the public API.
type idlePairRow struct {
	Pairs        int     `json:"pairs"`
	BytesPerPair float64 `json:"bytes_per_pair"`
}

// benchIdlePair runs first contacts on two cabled hosts, each settling
// before the next, and reads the live heap after two collections (the
// packet pools' victim caches) before and after: the difference per pair is
// its conn, its rconn and their share of the two hosts' pair tables. The
// count is deterministic, so it is measured once.
func benchIdlePair() idlePairRow {
	const warm, pairs = 16, 4096
	cfg := core.DefaultConfig()
	delivered := 0
	eng, src, msgs := peerHosts(cfg, warm+pairs, &delivered)
	contact := func(i int) {
		if err := src.Send(msgs[i]); err != nil {
			panic(err)
		}
		eng.RunFor(4 * cfg.BeaconInterval)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < warm; i++ {
		contact(i)
	}
	before := live()
	for i := warm; i < warm+pairs; i++ {
		contact(i)
	}
	after := live()
	runtime.KeepAlive(eng)
	runtime.KeepAlive(msgs)
	if delivered != warm+pairs {
		panic(fmt.Sprintf("idle pair: %d of %d delivered", delivered, warm+pairs))
	}
	return idlePairRow{Pairs: pairs, BytesPerPair: float64(after-before) / pairs}
}

// benchNodeBarriers is one barrier arrival plus one aggregate read at a
// fan-in-16 switch: the ToR up half of the benchmark's sparse-fabric, whose
// hosts beacon round-robin once per interval from clocks a random offset
// apart. One arrival in four then raises the input holding the minimum
// (the workload's own fan-in-16 nodes see 18 %) and costs a rescan.
func benchNodeBarriers() testing.BenchmarkResult {
	const fanIn = 16
	const interval = 5 * sim.Microsecond
	rng := rand.New(rand.NewSource(1))
	var off [fanIn]sim.Time
	for i := range off {
		off[i] = sim.Time(rng.Intn(int(sim.Microsecond)))
	}
	return testing.Benchmark(func(b *testing.B) {
		var s barrier.Set
		for i := 0; i < fanIn; i++ {
			s.Add(0, 0)
			s.SetMember(i, barrier.BE, true)
			s.SetMember(i, barrier.C, true)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % fanIn
			t := sim.Time(i/fanIn+1)*interval + off[j]
			s.Raise(j, t, t)
			s.Out()
		}
	})
}

// benchNextHop is one routing lookup at a spine's up half of the 512-host
// fabric (the benchmark's sparse-fabric), the destination walking every
// host: a turn-around for the spine's own pod, the core candidates for the
// other seven.
func benchNextHop() testing.BenchmarkResult {
	g := topology.NewClos(topology.ClosConfig{Pods: 8, RacksPerPod: 4, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8})
	spine := g.SpineUps(0)[0]
	hosts := g.Hosts
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			n += len(g.NextHops(spine, hosts[i%len(hosts)]))
		}
		if n == 0 {
			b.Fatal("no candidates")
		}
	})
}

func benchWireEncode() testing.BenchmarkResult {
	pkt := &netsim.Packet{
		Kind: netsim.KindData, Src: 3, Dst: 9, MsgTS: 123456789,
		BarrierBE: 123456000, BarrierC: 123455000, PSN: 77, FragIdx: 1,
		EndOfMsg: true, Reliable: true, Size: 1024,
	}
	payload := make([]byte, 512)
	buf := make([]byte, 0, wire.HeaderLen+len(payload))
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendEncode(buf[:0], pkt, payload)
		}
	})
}

func benchWireDecode() testing.BenchmarkResult {
	pkt := &netsim.Packet{
		Kind: netsim.KindData, Src: 3, Dst: 9, MsgTS: 123456789,
		PSN: 77, EndOfMsg: true, Reliable: true, Size: 1024,
	}
	buf := wire.Encode(pkt, make([]byte, 512))
	var dst netsim.Packet
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeInto(&dst, buf, 123456789); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSendPath is the BenchmarkSendPath shape: one best-effort packet over
// a quiescent 16-host Clos, all simulated hops included.
func benchSendPath() testing.BenchmarkResult {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	cfg.Clock.MaxOffset = 0
	cfg.Clock.MaxDriftPPM = 0
	cfg.DisableBeacons = true
	n := netsim.New(cfg)
	pool := n.PacketPool()
	n.AttachHost(7, pool.Put)
	send := func() {
		pkt := pool.Get()
		pkt.Kind, pkt.Src, pkt.Dst = netsim.KindData, 0, 7
		pkt.Size = 1024 + netsim.HeaderBytes
		pkt.MsgTS = n.Eng.Now()
		n.SendFromHost(0, pkt)
		n.Eng.Run()
	}
	send()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			send()
		}
	})
}

// occupancySummary is the shape of one batch-occupancy histogram in
// BENCH_core.json: how many messages shared a unit (wire frame on the send
// side, delivery batch on the receive side).
type occupancySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(h *stats.Histogram) occupancySummary {
	if h.N() == 0 {
		return occupancySummary{}
	}
	return occupancySummary{
		Count: h.N(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// benchE2E measures end-to-end ordered deliveries per wall-clock second on
// the public API: 32 processes each scattering 50 best-effort messages on
// the paper's testbed topology. batched selects the adaptive-batching
// defaults plus the OnDeliverBatch fast path; unbatched sends each message
// with the Unbatched option (one packet per message) and counts through the
// per-delivery callback.
// The returned histograms aggregate send-frame and delivery-batch occupancy
// across all runs (nil when unbatched).
func benchE2E(batched bool) (float64, *stats.Histogram, *stats.Histogram) {
	const procs, msgsEach = 32, 50
	delivered := 0
	sendOcc, recvOcc := &stats.Histogram{}, &stats.Histogram{}
	start := time.Now()
	runs := 0
	for time.Since(start) < 2*time.Second {
		cl := onepipe.NewCluster(onepipe.Config{
			Topology:     onepipe.Testbed(),
			ProcsPerHost: 1,
			Seed:         int64(runs + 1),
		})
		for p := 0; p < procs; p++ {
			if batched {
				cl.Process(p).OnDeliverBatch(func(ds []onepipe.Delivery) { delivered += len(ds) })
			} else {
				cl.Process(p).OnDeliver(func(onepipe.Delivery) { delivered++ })
			}
		}
		var opts []onepipe.SendOption
		if !batched {
			opts = append(opts, onepipe.Unbatched())
		}
		for p := 0; p < procs; p++ {
			for k := 0; k < msgsEach; k++ {
				dst := onepipe.ProcID((p + k + 1) % procs)
				cl.Process(p).Send([]onepipe.Message{{Dst: dst, Size: 64}}, opts...)
			}
		}
		cl.Run(500 * onepipe.Microsecond)
		if batched {
			s, r := cl.Core().Occupancy()
			sendOcc.Merge(s)
			recvOcc.Merge(r)
		}
		runs++
	}
	rate := float64(delivered) / time.Since(start).Seconds()
	if !batched {
		return rate, nil, nil
	}
	return rate, sendOcc, recvOcc
}

// runBenchJSON runs the core benchmark set and writes outPath. The
// hand-set blocks of a previous outPath (baseline, gate_floor) are carried
// over untouched.
func runBenchJSON(outPath string) error {
	var prev benchReport
	if raw, err := os.ReadFile(outPath); err == nil {
		_ = json.Unmarshal(raw, &prev)
	}

	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]benchResult{
			"engine_schedule":     engineRow(1, 1000),
			"engine_schedule_far": engineRow(5000, 100000),
			"wire_append_encode":  medianRow(benchWireEncode),
			"wire_decode_into":    medianRow(benchWireDecode),
			"send_path":           medianRow(benchSendPath),
			"timer_arm_cancel":    medianRow(func() testing.BenchmarkResult { return benchTimer(false) }),
			"timer_arm_fire":      medianRow(func() testing.BenchmarkResult { return benchTimer(true) }),
			"send_be_round":       medianRow(benchBERound),
			"first_contact":       medianRow(benchFirstContact),
			"node_barriers":       medianRow(benchNodeBarriers),
			"next_hop":            medianRow(benchNextHop),
		},
		Baseline:  prev.Baseline,
		GateFloor: prev.GateFloor,
	}
	rep.EngineEventsPerSec = 1e9 / rep.Benchmarks["engine_schedule"].NsPerOp
	idle := benchIdlePair()
	rep.IdlePairBytes = &idle
	scaleWindow := 400 * sim.Microsecond
	walls := make([]float64, medianRuns)
	var events uint64
	for i := range walls {
		walls[i], events, _, _ = experiments.FabricScaleOnce(scaleWindow)
	}
	mid, spread := median(walls)
	rep.Scale1024 = &scaleBench{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallS:      walls[mid],
		Runs:       spread.Runs,
		WallSMin:   spread.Min,
		WallSMax:   spread.Max,
		Events:     events,
		WindowUs:   scaleWindow.Micros(),
	}
	// The batched and unbatched runs alternate; the occupancy histograms
	// are the median batched run's.
	batched, unbatched := make([]float64, medianRuns), make([]float64, medianRuns)
	sendOcc, recvOcc := make([]*stats.Histogram, medianRuns), make([]*stats.Histogram, medianRuns)
	for i := range batched {
		batched[i], sendOcc[i], recvOcc[i] = benchE2E(true)
		unbatched[i], _, _ = benchE2E(false)
	}
	mid, rep.E2EMsgsPerSecSpread = median(batched)
	rep.E2EMsgsPerSec = batched[mid]
	so, ro := summarize(sendOcc[mid]), summarize(recvOcc[mid])
	rep.SendOccupancy, rep.RecvOccupancy = &so, &ro
	mid, rep.E2EUnbatchedMsgsPerSecSpread = median(unbatched)
	rep.E2EUnbatchedMsgsPerSec = unbatched[mid]
	rep.SLO = experiments.RunSLO(experiments.Quick())
	rep.Serve, rep.ServeNotes = experiments.RunServe(experiments.Quick())

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Benchmarks[name]
		fmt.Printf("%-19s %8.1f ns/op (median of %d, %.1f–%.1f)  %d allocs/op  %d B/op\n",
			name, r.NsPerOp, r.Runs, r.NsPerOpMin, r.NsPerOpMax, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Printf("engine events/s %.2fM\n", rep.EngineEventsPerSec/1e6)
	fmt.Printf("idle pair   %8.1f heap bytes per settled pair (%d pairs)\n", idle.BytesPerPair, idle.Pairs)
	if sb := rep.Scale1024; sb != nil {
		fmt.Printf("scale 1024  %8.2f s wall  (median of %d, %.2f–%.2f; %d events, %.0fus window)\n",
			sb.WallS, sb.Runs, sb.WallSMin, sb.WallSMax, sb.Events, sb.WindowUs)
	}
	b, u := rep.E2EMsgsPerSecSpread, rep.E2EUnbatchedMsgsPerSecSpread
	fmt.Printf("e2e         %8.0f msgs/s  (median of %d, %.0f–%.0f; unbatched %.0f, %.0f–%.0f)\n",
		rep.E2EMsgsPerSec, b.Runs, b.Min, b.Max, rep.E2EUnbatchedMsgsPerSec, u.Min, u.Max)
	if rep.SendOccupancy != nil && rep.SendOccupancy.Count > 0 {
		fmt.Printf("frame occ   mean %.2f p50 %.0f p99 %.0f max %.0f (%d frames)\n",
			rep.SendOccupancy.Mean, rep.SendOccupancy.P50, rep.SendOccupancy.P99,
			rep.SendOccupancy.Max, rep.SendOccupancy.Count)
	}
	if rep.RecvOccupancy != nil && rep.RecvOccupancy.Count > 0 {
		fmt.Printf("deliver occ mean %.2f p50 %.0f p99 %.0f max %.0f (%d batches)\n",
			rep.RecvOccupancy.Mean, rep.RecvOccupancy.P50, rep.RecvOccupancy.P99,
			rep.RecvOccupancy.Max, rep.RecvOccupancy.Count)
	}
	for _, r := range rep.SLO {
		fmt.Printf("slo %-14s %6d delivered  p50 %.2fus  p99 %.2fus  p999 %.2fus\n",
			r.Config, r.Delivered, r.P50, r.P99, r.P999)
	}
	for _, r := range rep.Serve {
		fmt.Printf("serve %-14s %7d clients %7d delivered  p50 %.2fus  p99 %.2fus\n",
			r.Segment, r.Clients, r.Delivered, r.P50, r.P99)
	}
	for _, n := range rep.ServeNotes {
		fmt.Println("serve note: " + n)
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// runBenchGate re-measures engine scheduling and fails if events/sec fall
// below the hand-pinned gate_floor of the committed BENCH_core.json — the CI
// bench-smoke contract. The floor, not the file's last capture, is the gate:
// a capture is overwritten by every `-bench-json` run, so gating on it lets
// the bar sink 10% at a time. The ratio to the last capture is only printed.
// The engine figure is the gate because every simulated packet hop pays it
// and it is the least noisy of the set.
func runBenchGate(committedPath string) error {
	raw, err := os.ReadFile(committedPath)
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	var committed benchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("bench gate: parse %s: %w", committedPath, err)
	}
	if committed.GateFloor == nil || committed.GateFloor.EngineEventsPerSec <= 0 {
		return fmt.Errorf("bench gate: %s has no gate_floor.engine_events_per_sec", committedPath)
	}
	floor := committed.GateFloor.EngineEventsPerSec
	// Best of 3 to damp shared-runner noise.
	var best float64
	for i := 0; i < 3; i++ {
		r := benchEngine(1, 1000)
		if ev := 1e9 / (float64(r.T.Nanoseconds()) / float64(r.N)); ev > best {
			best = ev
		}
	}
	fmt.Printf("bench gate: engine %.2fM events/s, floor %.2fM", best/1e6, floor/1e6)
	if committed.EngineEventsPerSec > 0 {
		fmt.Printf(" (last capture %.2fM, ratio %.2f)", committed.EngineEventsPerSec/1e6, best/committed.EngineEventsPerSec)
	}
	fmt.Println()
	if best < floor {
		return fmt.Errorf("bench gate: engine %.2fM events/s is below the pinned floor %.2fM", best/1e6, floor/1e6)
	}
	return nil
}

// runServeGate re-runs the quick-scale serving-tier figure and fails if any
// segment's delivered count drifted (the closed loop is deterministic, so a
// count change means a behavior change), if any p99 regressed more than 25%
// against the committed report, or if the elastic Join/Drain segment did not
// recover its SLO (the fresh run's notes carry FAILED/EXCEEDED verdicts).
func runServeGate(committedPath string) error {
	raw, err := os.ReadFile(committedPath)
	if err != nil {
		return fmt.Errorf("serve gate: %w", err)
	}
	var committed benchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("serve gate: parse %s: %w", committedPath, err)
	}
	if len(committed.Serve) == 0 {
		return fmt.Errorf("serve gate: %s has no serve rows; refresh with -bench-json", committedPath)
	}
	fresh, notes := experiments.RunServe(experiments.Quick())
	// The kv sweep repeats one segment name at several client counts, so
	// rows are keyed by (segment, clients), not segment alone.
	type segKey struct {
		segment string
		clients int
	}
	bySeg := make(map[segKey]experiments.ServeRow, len(fresh))
	for _, r := range fresh {
		bySeg[segKey{r.Segment, r.Clients}] = r
	}
	var failures []string
	for _, want := range committed.Serve {
		got, ok := bySeg[segKey{want.Segment, want.Clients}]
		if !ok {
			failures = append(failures, fmt.Sprintf("segment %s (%d clients) missing from fresh run", want.Segment, want.Clients))
			continue
		}
		fmt.Printf("serve gate: %-14s %7d clients  delivered %d (committed %d)  p99 %.2fus (committed %.2fus)\n",
			got.Segment, got.Clients, got.Delivered, want.Delivered, got.P99, want.P99)
		if got.Delivered != want.Delivered {
			failures = append(failures, fmt.Sprintf(
				"%s/%d: delivered %d != committed %d (deterministic tier; behavior changed — refresh BENCH_core.json if intended)",
				want.Segment, want.Clients, got.Delivered, want.Delivered))
		}
		if want.P99 > 0 && got.P99 > want.P99*1.25 {
			failures = append(failures, fmt.Sprintf("%s/%d: p99 %.2fus regressed >25%% vs committed %.2fus",
				want.Segment, want.Clients, got.P99, want.P99))
		}
	}
	for _, n := range notes {
		fmt.Println("serve gate: " + n)
		if strings.Contains(n, "FAILED") || strings.Contains(n, "EXCEEDED") {
			failures = append(failures, "elastic verdict: "+n)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "serve gate: "+f)
		}
		return fmt.Errorf("serve gate: %d failure(s)", len(failures))
	}
	return nil
}

// runSLOGate re-runs the quick-scale SLO race and fails if any config's p99
// delivery latency regressed more than 25% against the committed report, or
// if delivery counts drifted at all (the race is deterministic, so a count
// change means a behavior change, not noise).
func runSLOGate(committedPath string) error {
	raw, err := os.ReadFile(committedPath)
	if err != nil {
		return fmt.Errorf("slo gate: %w", err)
	}
	var committed benchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("slo gate: parse %s: %w", committedPath, err)
	}
	if len(committed.SLO) == 0 {
		return fmt.Errorf("slo gate: %s has no slo rows; refresh with -bench-json", committedPath)
	}
	fresh := experiments.RunSLO(experiments.Quick())
	byName := make(map[string]experiments.SLORow, len(fresh))
	for _, r := range fresh {
		byName[r.Config] = r
	}
	var failures []string
	for _, want := range committed.SLO {
		got, ok := byName[want.Config]
		if !ok {
			failures = append(failures, fmt.Sprintf("config %s missing from fresh run", want.Config))
			continue
		}
		fmt.Printf("slo gate: %-14s delivered %d (committed %d)  p99 %.2fus (committed %.2fus)\n",
			got.Config, got.Delivered, want.Delivered, got.P99, want.P99)
		if got.Delivered != want.Delivered {
			failures = append(failures, fmt.Sprintf(
				"%s: delivered %d != committed %d (deterministic race; behavior changed — refresh BENCH_core.json if intended)",
				want.Config, got.Delivered, want.Delivered))
		}
		if want.P99 > 0 && got.P99 > want.P99*1.25 {
			failures = append(failures, fmt.Sprintf("%s: p99 %.2fus regressed >25%% vs committed %.2fus",
				want.Config, got.P99, want.P99))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "slo gate: "+f)
		}
		return fmt.Errorf("slo gate: %d failure(s)", len(failures))
	}
	return nil
}
