package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"onepipe"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/serve"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

const (
	// fixedSegments splits the fixed simulated window; every sim_* metric,
	// allocs and live heap are read over exactly these segments, so they
	// repeat for a fixed (-seed, -seconds) however fast the host is.
	fixedSegments = 8
	// maxSegments caps the extra wall-only segments of a much faster host.
	maxSegments = 64
	// drainTime is the simulated time run after the generator stops so
	// every in-flight message lands before checking.
	drainTime = 1 * sim.Millisecond
	// serveSlice is the Cluster.Run slice of the closed-loop workload, which
	// has no generator steps to pace the driver.
	serveSlice = 10 * sim.Microsecond
)

// Message states, in msgRec.state.
const (
	stateInFlight uint8 = iota
	stateDelivered
	stateFailed  // reported through OnSendFail
	stateRefused // Send returned an error
)

// msgRec is the benchmark's record of one message; Delivery.Data carries a
// pointer to it, so neither the send nor the delivery path boxes a value.
type msgRec struct {
	sentAt sim.Time // when the intent was due
	scat   int32
	fan    uint8 // scattering size, set on its first message only
	rel    bool
	state  uint8
}

const recChunk = 1 << 12

// recArena hands out msgRecs from fixed chunks, so pointers stay valid and
// the window sees one allocation per 4096 messages (small chunks, so the
// live heap does not jump by megabytes at a seed-dependent instant).
type recArena struct {
	chunks [][]msgRec
	n      int
}

func (a *recArena) next() *msgRec {
	if a.n == len(a.chunks)*recChunk {
		a.chunks = append(a.chunks, make([]msgRec, recChunk))
	}
	rec := &a.chunks[a.n/recChunk][a.n%recChunk]
	a.n++
	return rec
}

func (a *recArena) at(i int) *msgRec { return &a.chunks[i/recChunk][i%recChunk] }

// run is one deployed fabric plus the benchmark's generator and oracle.
type run struct {
	def   *workloadDef
	cl    *onepipe.Cluster
	eng   *sim.Engine
	procs []*onepipe.Process
	tr    *tracer // nil on untraced runs

	// open loop
	src      workload.Source
	pend     workload.Intent
	havePend bool
	relOpt   onepipe.SendOption
	recs     recArena
	msgBuf   []onepipe.Message
	mtu      int
	// closed loop
	tier *serve.Tier

	chk       *orderChecker
	sampling  bool
	lat       []uint32 // send → delivery, simulated ns, while sampling
	delivered uint64
	attempted uint64 // messages handed to Send
	refused   uint64
	sendFails uint64
	fragments uint64 // data fragments submitted (size / MTU, rounded up)
	intents   uint64
	lagMax    sim.Time
	pendSum   uint64 // Engine.Pending summed at every Cluster.Run call
	pendN     uint64
}

// setup builds the fabric, starts the tier or generator and runs the
// warm-up; its wall time is one setup_s sample.
func setup(def *workloadDef, seed int64, tr *tracer) *run {
	cfg := onepipe.Config{Topology: def.topo, ProcsPerHost: def.procsPerHost, Seed: seed}
	if def.loss > 0 {
		cfg.Impair = netsim.UniformLoss(def.loss)
	}
	cl := onepipe.NewCluster(cfg)
	n := cl.NumProcesses()
	r := &run{def: def, cl: cl, eng: cl.Network().Eng, tr: tr, chk: newOrderChecker(n),
		relOpt: onepipe.Reliable(), mtu: core.DefaultConfig().MTU}
	r.procs = make([]*onepipe.Process, n)
	for p := range r.procs {
		r.procs[p] = cl.Process(p)
	}
	if def.source != nil {
		r.src = def.source(n, seed)
		for p, proc := range r.procs {
			dst := p
			proc.OnDeliverBatch(func(ds []onepipe.Delivery) { r.onBatch(dst, ds) })
			proc.OnSendFail(r.onSendFail)
		}
	} else {
		r.tier = serve.New(cl, def.serveConfig(seed))
		// The tier owns OnDeliver on every process; wrap its callback so the
		// order oracle sees each delivery first.
		for p, proc := range r.procs {
			dst, inner := p, cl.Core().Procs[p].OnDeliver
			proc.OnDeliver(func(d onepipe.Delivery) { r.onServeDelivery(dst, d, inner) })
		}
		// Measuring from time zero makes Result.Issued the count of every
		// request that ever entered the fabric.
		r.tier.StartMeasure()
		r.tier.Start()
	}
	r.driveTo(def.warmup)
	return r
}

func (r *run) onBatch(dst int, ds []onepipe.Delivery) {
	var t0 int64
	if r.tr != nil {
		t0 = r.tr.now()
	}
	now := r.eng.Now()
	for i := range ds {
		d := &ds[i]
		rec := d.Data.(*msgRec)
		r.chk.observe(dst, d.TS, d.Src, d.Reliable)
		if rec.state != stateInFlight {
			r.chk.duplicates++
		}
		rec.state = stateDelivered
		if r.sampling {
			r.lat = append(r.lat, uint32(now-rec.sentAt))
		}
	}
	r.delivered += uint64(len(ds))
	if r.tr != nil {
		r.tr.leaf(spanDeliver, t0, r.tr.runID, ds[0].Data.(*msgRec).scat)
	}
}

func (r *run) onSendFail(f onepipe.SendFailure) {
	f.Data.(*msgRec).state = stateFailed
	r.sendFails++
}

func (r *run) onServeDelivery(dst int, d onepipe.Delivery, inner func(onepipe.Delivery)) {
	r.chk.observe(dst, d.TS, d.Src, d.Reliable)
	r.delivered++
	if r.tr == nil {
		inner(d)
		return
	}
	t0 := r.tr.now()
	inner(d)
	r.tr.leaf(spanDeliver, t0, r.tr.runID, -1)
}

// release drops the fabric and the per-message records; the counters stay.
func (r *run) release() {
	r.cl, r.eng, r.procs, r.tier, r.chk = nil, nil, nil, nil, nil
	r.recs, r.msgBuf, r.lat = recArena{}, nil, nil
}

// advance runs the fabric up to simulated time t.
func (r *run) advance(t sim.Time) {
	d := t - r.eng.Now()
	if d <= 0 {
		return
	}
	r.pendSum += uint64(r.eng.Pending())
	r.pendN++
	if r.tr == nil {
		r.cl.Run(d)
		return
	}
	tr := r.tr
	start := tr.now()
	tr.runID = tr.newID()
	r.cl.Run(d)
	tr.record(tr.runID, tr.winID, spanRun, start, tr.now(), -1)
	tr.runID = -1
}

// driveTo advances to simulated time until. The open-loop generator
// alternates Cluster.Run(next.At − Now) and Process.Send, adding no events of
// its own; the closed loop is driven by the tier's own timers.
func (r *run) driveTo(until sim.Time) {
	if r.tier != nil {
		for now := r.eng.Now(); now < until; now = r.eng.Now() {
			step := until - now
			if step > serveSlice {
				step = serveSlice
			}
			r.advance(now + step)
		}
		return
	}
	for {
		if !r.havePend {
			var t0 int64
			if r.tr != nil {
				t0 = r.tr.now()
			}
			it, ok := r.src.Next()
			if r.tr != nil {
				r.tr.leaf(spanNext, t0, -1, int32(r.intents))
			}
			if !ok {
				break
			}
			r.pend, r.havePend = it, true
		}
		if r.pend.At >= until {
			break
		}
		r.advance(r.pend.At)
		r.send(r.pend)
		r.havePend = false
	}
	r.advance(until)
}

func (r *run) takeMsgs(n int) []onepipe.Message {
	if len(r.msgBuf) < n {
		r.msgBuf = make([]onepipe.Message, 4096)
	}
	m := r.msgBuf[:n:n]
	r.msgBuf = r.msgBuf[n:]
	return m
}

func (r *run) send(it workload.Intent) {
	if lag := r.eng.Now() - it.At; lag > r.lagMax {
		r.lagMax = lag
	}
	scat := int32(r.intents)
	r.intents++
	msgs := r.takeMsgs(len(it.Dsts)) // core keeps the slice, so it cannot be reused
	first := r.recs.n
	for i, d := range it.Dsts {
		rec := r.recs.next()
		*rec = msgRec{sentAt: it.At, scat: scat, rel: it.Opts.Reliable}
		msgs[i] = onepipe.Message{Dst: onepipe.ProcID(d), Data: rec, Size: it.Size}
	}
	r.recs.at(first).fan = uint8(len(msgs))
	r.attempted += uint64(len(msgs))
	r.fragments += uint64(len(msgs) * ((it.Size + r.mtu - 1) / r.mtu))
	var t0 int64
	if r.tr != nil {
		t0 = r.tr.now()
	}
	var err error
	if it.Opts.Reliable {
		err = r.procs[it.Src].Send(msgs, r.relOpt)
	} else {
		err = r.procs[it.Src].Send(msgs)
	}
	if r.tr != nil {
		r.tr.leaf(spanSend, t0, -1, scat)
	}
	if err != nil {
		r.refused += uint64(len(msgs))
		for i := range msgs {
			r.recs.at(first + i).state = stateRefused
		}
	}
}

// done counts completed units: delivered messages, or finished requests on
// the serving workload.
func (r *run) done() uint64 {
	if r.tier != nil {
		return uint64(r.tier.Completed())
	}
	return r.delivered
}

// snap is every counter the metrics are deltas of, read at one simulated
// instant.
type snap struct {
	at      sim.Time
	events  uint64
	done    uint64
	net     netsim.Stats
	core    core.HostStats
	occN    [2]float64 // send, recv occupancy sample counts
	occSum  [2]float64
	applied uint64
	mallocs uint64
	// the benchmark's own counters
	sent, fragments uint64
	observed        [2]uint64 // deliveries seen, per class
}

func (r *run) snap() snap {
	s := snap{at: r.eng.Now(), events: r.cl.Network().ExecutedEvents(), done: r.done(),
		net: r.cl.Network().TotalStats(), core: r.cl.Core().TotalStats(),
		sent: r.attempted, fragments: r.fragments, observed: r.chk.perClass}
	send, recv := r.cl.Core().Occupancy()
	s.occN = [2]float64{float64(send.N()), float64(recv.N())}
	s.occSum = [2]float64{send.Mean() * s.occN[0], recv.Mean() * s.occN[1]}
	if r.tier != nil {
		s.applied = r.tier.AppliedOps()
	}
	s.mallocs = mallocs()
	return s
}

// deliveries is how many deliveries the order oracle has seen.
func (s *snap) deliveries() uint64 { return s.observed[0] + s.observed[1] }

func (s *snap) pkts() uint64 {
	var n uint64
	for _, c := range s.net.PktsByKind {
		n += c
	}
	return n
}

// checkpoint is the simulated state at the end of the first fixed segment;
// two runs of one seed must agree on it exactly.
type checkpoint struct {
	Events      uint64 `json:"events"`
	Pkts        uint64 `json:"pkts"`
	Done        uint64 `json:"done"`
	Deliveries  uint64 `json:"deliveries"`
	Digest      uint64 `json:"digest"`
	StateDigest uint64 `json:"state_digest"`
}

func (r *run) checkpoint(s *snap) checkpoint {
	cp := checkpoint{Events: s.events, Pkts: s.pkts(), Done: s.done,
		Deliveries: s.deliveries(), Digest: r.chk.digest}
	if r.tier != nil {
		cp.StateDigest = r.tier.StateDigest()
	}
	return cp
}

// liveHeap forces a collection and reads the live heap: at a fixed
// simulated instant it depends on program state, not on GC pacing.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// plan says how much to measure.
type plan struct {
	window sim.Time      // fixed simulated window
	budget time.Duration // wall time the measured region should fill; 0 = fixed window only
	expect *checkpoint   // checkpoint of an earlier run of the same seed, or nil
}

// result is what one measured run yields.
type result struct {
	window      sim.Time
	first, last snap      // fixed-window boundaries
	segRate     []float64 // units per wall second, every segment
	fixedWall   time.Duration
	mallocs     uint64   // heap allocations inside the fixed segments
	lat         []uint32 // sorted latencies, simulated ns
	heapMB      float64
	cp          checkpoint
	attempted   uint64
	failed      uint64
	problems    []string // why the run is not correct; empty = correct
	run         *run
}

func (r *run) measure(p plan) *result {
	res := &result{window: p.window, run: r}
	seg := p.window / fixedSegments
	start := r.eng.Now()
	r.sampling = true
	if r.src != nil {
		// One sample per delivered message; sized so the window does not
		// pay for growing it.
		r.lat = make([]uint32, 0, int(float64(p.window)/float64(r.def.windowPerSec)*120000)+1<<16)
	}
	res.heapMB = liveHeap()
	var winStart int64
	if r.tr != nil {
		r.tr.reset() // spans cover the measured window, not the warm-up
		if r.tier != nil {
			r.tr.winID, winStart = r.tr.newID(), r.tr.now()
		}
	}
	var spent time.Duration
	for k := 0; k < maxSegments; k++ {
		if k >= fixedSegments && spent >= p.budget {
			break
		}
		if k == fixedSegments {
			r.sampling = false
		}
		s0 := r.snap()
		t0 := time.Now()
		r.driveTo(start + sim.Time(k+1)*seg)
		wall := time.Since(t0)
		s1 := r.snap()
		spent += wall
		res.segRate = append(res.segRate, float64(s1.done-s0.done)/wall.Seconds())
		if k >= fixedSegments {
			continue
		}
		res.fixedWall += wall
		res.mallocs += s1.mallocs - s0.mallocs
		if k == 0 {
			res.first = s0
			res.cp = r.checkpoint(&s1)
			if p.expect != nil && res.cp != *p.expect {
				res.problems = append(res.problems, fmt.Sprintf(
					"not deterministic: first-segment checkpoint %+v, earlier run of the same seed %+v", res.cp, *p.expect))
			}
		}
		res.last = s1
		if h := liveHeap(); h > res.heapMB {
			res.heapMB = h
		}
	}
	r.sampling = false
	if r.tr != nil {
		if r.tier != nil {
			r.tr.record(r.tr.winID, -1, spanWindow, winStart, r.tr.now(), -1)
		}
		r.tr = nil // nor the drain
	}
	r.finish(res)
	return res
}

// firstSegment runs only the first fixed segment of window and returns its
// checkpoint — the in-process repeat the determinism check compares with.
func (r *run) firstSegment(window sim.Time) checkpoint {
	r.driveTo(r.eng.Now() + window/fixedSegments)
	s := r.snap()
	return r.checkpoint(&s)
}

// finish stops the load, drains the fabric and runs the correctness checks.
func (r *run) finish(res *result) {
	fail := func(format string, a ...any) { res.problems = append(res.problems, fmt.Sprintf(format, a...)) }
	if r.tier != nil {
		windowEnd := r.eng.Now()
		for p := range r.procs {
			r.tier.StopFrontend(p)
		}
		r.advance(windowEnd + drainTime)
		issued, completed := uint64(r.tier.StopMeasure().Issued), uint64(r.tier.Completed())
		res.attempted = issued
		if completed < issued {
			res.failed = issued - completed
			fail("%d of %d requests never completed", res.failed, issued)
		}
		res.lat = serveLatencies(r.tier.Log(), res.first.at, res.last.at)
		if want := res.last.done - res.first.done; uint64(len(res.lat)) != want {
			fail("request log has %d completions in the window, the tier counted %d", len(res.lat), want)
		}
	} else {
		r.src, r.havePend = nil, false
		r.advance(r.eng.Now() + drainTime)
		undelivered, broken := r.checkMessages()
		res.attempted = r.attempted
		res.failed = r.refused + r.sendFails + undelivered + broken
		if r.refused > 0 {
			fail("%d sends refused", r.refused)
		}
		if r.sendFails > 0 {
			fail("%d messages reported through OnSendFail", r.sendFails)
		}
		if undelivered > 0 {
			fail("%d accepted messages neither delivered nor failed after the drain", undelivered)
		}
		if broken > 0 {
			fail("%d reliable scatterings partly delivered", broken)
		}
		res.lat = r.lat
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	if r.chk.violations > 0 {
		res.failed += r.chk.violations
		fail("%d deliveries out of (TS, Src) order", r.chk.violations)
	}
	if r.chk.duplicates > 0 {
		res.failed += r.chk.duplicates
		fail("%d duplicate deliveries", r.chk.duplicates)
	}
	if res.last.done == res.first.done {
		fail("nothing completed in the measured window")
	}
}

// checkMessages walks every message record after the drain: an accepted
// message must be delivered or failed, and a reliable scattering must be
// all-delivered or all-failed.
func (r *run) checkMessages() (undelivered, broken uint64) {
	for i := 0; i < r.recs.n; {
		head := r.recs.at(i)
		fan := int(head.fan)
		var got, lost int
		for j := i; j < i+fan; j++ {
			switch r.recs.at(j).state {
			case stateInFlight:
				undelivered++
			case stateDelivered:
				got++
			case stateFailed:
				lost++
			}
		}
		if head.rel && got > 0 && lost > 0 {
			broken++
		}
		i += fan
	}
	return undelivered, broken
}

// serveLatencies reads the exact client-observed latencies (ns) of requests
// completed in (from, to] from the tier's request log, whose lines are
// "s=<session> q=<seq> at=<completion ns> lat=<ns> n=<ops>".
func serveLatencies(log []byte, from, to sim.Time) []uint32 {
	var out []uint32
	for len(log) > 0 {
		line := log
		if i := bytes.IndexByte(log, '\n'); i >= 0 {
			line, log = log[:i], log[i+1:]
		} else {
			log = nil
		}
		if at := sim.Time(logField(line, " at=")); at > from && at <= to {
			out = append(out, uint32(logField(line, " lat=")))
		}
	}
	return out
}

// logField returns the decimal number that follows key in line, or -1.
func logField(line []byte, key string) int64 {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return -1
	}
	var v int64
	for _, c := range line[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

// percentile is the nearest-rank percentile of sorted latencies, in us.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / 1000
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
