// Package serve is the repository's serving tier: a closed-loop
// client/service subsystem that drives sharded replicated services —
// a linearizable key-value store (get/put/scan), a tpcc-style transaction
// mix, and two state-machine-replication modes — entirely through the
// root Fabric API (Send with Reliable/Batched/Conflicts options).
//
// The client pool scales to ~10^6 simulated sessions: each session is a
// closed-loop client (at most one outstanding request) whose think times
// come from a per-session SplitMix64 stream (8 bytes of PRNG state, not a
// 5 KB *rand.Rand), so a million connected clients cost tens of megabytes.
// Latency is measured client-observed: the clock starts when the session
// decides to issue (before any backpressure retry or batching delay) and
// stops when the last reply part arrives, reported as p50/p99/p999 through
// internal/stats streaming histograms.
package serve

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"

	"onepipe"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// Service selects what the tier serves.
type Service uint8

const (
	// KV is the sharded linearizable key-value service: point get/put and
	// short scans, one scattering per request (best-effort for read-only,
	// reliable otherwise), owners applying in timestamp order.
	KV Service = iota
	// Txn is the tpcc-style transaction service: a fixed mix of
	// new-order / payment / order-status / delivery / stock-level shapes
	// over the same sharded ownership.
	Txn
	// SMRFabric replicates one state machine on R replicas with NO leader:
	// each command is a reliable scattering to all replicas and the
	// fabric's delivery order IS the log (§2.2.2).
	SMRFabric
	// SMRRaft is the baseline: the same state machine replicated by the
	// in-tree Raft core, whose RPCs ride best-effort fabric scatterings;
	// the leader sequences, commits on quorum, and replies.
	SMRRaft
)

func (s Service) String() string {
	switch s {
	case KV:
		return "kv"
	case Txn:
		return "txn"
	case SMRFabric:
		return "smr-fabric"
	case SMRRaft:
		return "smr-raft"
	}
	return "?"
}

// Config parameterizes a tier deployment.
type Config struct {
	Service Service
	// Clients is the number of closed-loop sessions across all frontends.
	Clients int
	// Servers is the shard-owner count for KV/Txn: processes [0,Servers)
	// own keys by key%Servers. When Servers equals the process count every
	// process is both owner and frontend (the layout of internal/kvstore,
	// the reference TestKVMatchesLegacyKVStore pins this tier against);
	// when smaller, the remaining processes are pure frontends and elastic
	// joins add frontend capacity without resharding.
	Servers int
	// Keys is the keyspace size.
	Keys uint64
	// ThinkTime is the mean exponential think time between a response and
	// the session's next request; session first requests are staggered
	// over the same span.
	ThinkTime sim.Time
	// ServerOpCost models server CPU per KV operation (FIFO station).
	ServerOpCost sim.Time
	// BatchWindow, when nonzero, sends every request Batched(w);
	// Conflicts tags write requests with their first write key for
	// conflict-aware fabrics.
	BatchWindow sim.Time
	Conflicts   bool
	// RetryTimeout re-issues a request whose replies went missing (lost
	// best-effort reads under impairment/faults); 0 disables.
	RetryTimeout sim.Time
	// MaxRequests caps each session (0 = unbounded); used by tests that
	// run a fixed op list to completion.
	MaxRequests int
	// Txns overrides the per-session request generator (tests); ops still
	// bucket and route exactly like generated ones.
	Txns func(sess int) workload.TxnSource
	// RecordLog keeps a textual request/response log (determinism tests).
	RecordLog bool
	Seed      int64
}

// smrReplicas is the replication degree of the SMR services: processes
// [0,smrReplicas) are replicas, the rest are frontends.
const smrReplicas = 3

// The generated request shape, the same in every run: Zipf-skewed keys,
// opsPerReq point ops per request (a write w.p. writeFrac), except that
// with probability scanFrac the request is instead one scan of scanLen
// consecutive keys.
const (
	zipfTheta = 0.99
	opsPerReq = 2
	writeFrac = 0.3
	scanFrac  = 0.05
	scanLen   = 8
)

// DefaultConfig returns the reference serving workload: a million-key KV
// with the request shape above.
func DefaultConfig() Config {
	return Config{
		Service:      KV,
		Keys:         1 << 20,
		ThinkTime:    1 * sim.Millisecond,
		ServerOpCost: 100 * sim.Nanosecond,
		Seed:         1,
	}
}

// Result is one measurement window's client-observed outcome.
type Result struct {
	// Delivered counts requests completed inside the window; Issued counts
	// requests entering the fabric (including retries).
	Delivered int
	Issued    int
	// Latency percentiles and mean, microseconds, client-observed.
	P50, P99, P999, Mean float64
	// Window is the measured span.
	Window sim.Time
}

// ReqPerSec returns delivered requests per simulated second.
func (r Result) ReqPerSec() float64 {
	if r.Window == 0 {
		return 0
	}
	return float64(r.Delivered) / r.Window.Seconds()
}

// session is one closed-loop client: at most one outstanding request.
type session struct {
	fe      int32  // frontend proc hosting the session
	seq     uint32 // current request sequence
	pending int32  // outstanding reply parts
	stopped bool   // drained frontends stop reissuing
	rng     uint64 // SplitMix64 state
	start   sim.Time
	done    int
	retryEp uint32 // guards the loss-retry timer
	id      int32  // index in Tier.sessions
	gen     workload.TxnSource
	req     *request // the outstanding request's latest attempt; nil while thinking
}

// reqInline is how many ops and owner parts a request holds without a slab
// of its own: the default OpsPerReq. It is sized by bytes — a request is
// 216 B with it (the 224 B size class), 112 B of that the two parts — and a
// scan or a transaction that does not fit takes one slab per kind through
// the same code.
const reqInline = 2

// request is one attempt at a session's request, in one allocation: the
// ops grouped by owner and one part per owner. Its scattering is built in
// the tier's send buffer at each transmission, one message per part with
// Data pointing at the part (the SMR services have one part, which every
// replica's message points at). The owner's verdict and its reply live in
// the part, so from the moment Process.Send accepts an attempt its request
// belongs to the fabric and the owners until the last reply closes it:
// complete then hands it to the tier's free list, and a loss-retry resend
// takes a fresh one that is never recycled (see complete).
type request struct {
	ops    []workload.Op
	parts  []reqMsg
	sent   bool // Process.Send accepted it
	resent bool // a loss-retry copy: the attempts before it may still answer

	opsArr   [reqInline]workload.Op
	partsArr [reqInline]reqMsg
}

// reqMsg is one owner's share of a request scattering, and what the owner
// needs to answer it: a delivered part is served and replied to once, so the
// dedup verdict and the reply sit in it.
type reqMsg struct {
	Sess  int32
	FE    int32
	Seq   uint32
	owner int32         // the proc serving the part (set on delivery)
	Ops   []workload.Op // a subslice of the request's ops

	rep      repMsg
	dup      bool   // the owner had already applied (Sess, Seq)
	answered bool   // the frontend holds a reply to this part (current attempt)
	part     uint16 // index in the request's parts, the same in every attempt
}

// repMsg completes one owner's share back at the frontend. part is not on
// the wire (Size stays 16): it names the part the reply answers, so that
// replies of two attempts from one owner count once.
type repMsg struct {
	Sess int32
	Seq  uint32
	N    uint16
	part uint16
}

// shard is one owner process's state: the data it owns plus a modeled CPU.
type shard struct {
	data    map[uint64]uint64 // key -> write version
	lastSeq map[int32]uint32  // per-session dedup cursor (RetryTimeout > 0 only)
	cpuBusy sim.Time
	applied uint64 // ops applied (reads + writes)
}

// Tier is a deployed serving tier over a running fabric.
type Tier struct {
	Cfg Config

	cl        *onepipe.Cluster
	eng       *sim.Engine
	sessions  []*session
	frontends []int
	shards    map[int]*shard // owner proc -> state
	zipf      *workload.Zipf
	smr       *smrState

	measuring bool
	hist      stats.Histogram
	delivered int
	issued    int
	winStart  sim.Time
	log       []byte
	started   bool

	// free is the LIFO of closed KV / Txn requests that issue takes before
	// allocating; msgs is the send buffer every scattering the tier sends is
	// built in, which Process.Send copies.
	free []*request
	msgs []onepipe.Message
}

// New deploys the tier over an existing cluster. Sessions are created but
// idle until Start.
func New(cl *onepipe.Cluster, cfg Config) *Tier {
	n := cl.NumProcesses()
	t := &Tier{Cfg: cfg, cl: cl, eng: cl.Network().Eng, shards: make(map[int]*shard)}
	// The shared table is draw-free after construction (sessions feed it
	// their own uniforms via FromU); the throwaway rand.Rand only satisfies
	// the constructor.
	t.zipf = workload.NewZipf(rand.New(rand.NewSource(1)), cfg.Keys, zipfTheta)
	switch cfg.Service {
	case KV, Txn:
		if cfg.Servers <= 0 || cfg.Servers > n {
			cfg.Servers = n
			t.Cfg.Servers = n
		}
		for p := 0; p < cfg.Servers; p++ {
			t.shards[p] = newShard()
		}
		if cfg.Servers < n {
			for p := cfg.Servers; p < n; p++ {
				t.frontends = append(t.frontends, p)
			}
		} else {
			for p := 0; p < n; p++ {
				t.frontends = append(t.frontends, p)
			}
		}
	case SMRFabric, SMRRaft:
		for p := smrReplicas; p < n; p++ {
			t.frontends = append(t.frontends, p)
		}
		t.initSMR()
	}
	for p := 0; p < n; p++ {
		t.attach(p)
	}
	t.addSessions(t.frontends, cfg.Clients, 1)
	return t
}

func newShard() *shard {
	return &shard{data: make(map[uint64]uint64), lastSeq: make(map[int32]uint32)}
}

// attach registers the tier's dispatch on one process handle.
func (t *Tier) attach(p int) {
	proc := t.cl.Process(p)
	pi := p
	proc.OnDeliver(func(d onepipe.Delivery) { t.dispatch(pi, d) })
}

// addSessions spreads count new sessions round-robin over the given
// frontend procs, staggering their first requests over StartSpread
// starting at base.
func (t *Tier) addSessions(fes []int, count int, base sim.Time) {
	if count == 0 || len(fes) == 0 {
		return
	}
	first := len(t.sessions)
	for i := 0; i < count; i++ {
		id := first + i
		st := uint64(t.Cfg.Seed)*0x9e3779b97f4a7c15 + uint64(id)*0xd1b54a32d192ed03 + 0x2545f4914f6cdd1d
		s := &session{fe: int32(fes[i%len(fes)]), rng: st, id: int32(id)}
		if t.Cfg.Txns != nil {
			s.gen = t.Cfg.Txns(id)
		}
		t.sessions = append(t.sessions, s)
	}
	if t.started {
		t.startRange(first, len(t.sessions), base)
	}
}

// Start arms every session's first request.
func (t *Tier) Start() {
	if t.started {
		return
	}
	t.started = true
	t.startRange(0, len(t.sessions), 1)
}

func (t *Tier) startRange(lo, hi int, base sim.Time) {
	spread := t.Cfg.ThinkTime
	n := hi - lo
	for i := lo; i < hi; i++ {
		at := base + sim.Time(int64(i-lo)*int64(spread)/int64(n))
		t.eng.At2(at, issueEv, t, t.sessions[i])
	}
}

// The session events — first request, think, backoff — are capture-free
// (tier, session) pairs: scheduling one allocates nothing.
func issueEv(a, b any) { a.(*Tier).issue(b.(*session)) }
func sendEv(a, b any)  { a.(*Tier).send(b.(*session)) }

// issue builds and sends s's next request; the client-observed clock
// starts here, before any backpressure or batching delay.
func (t *Tier) issue(s *session) {
	if s.stopped || (t.Cfg.MaxRequests > 0 && s.done >= t.Cfg.MaxRequests) {
		return
	}
	s.seq++
	s.start = t.eng.Now()
	r := t.newRequest()
	r.ops = t.nextOps(s, r.opsArr[:0])
	t.split(r, s)
	s.req = r
	t.send(s)
}

// newRequest takes an empty request off the free list, or allocates one. A
// recycled request drops the slabs a wide one had, so the list holds only
// the inline shape.
func (t *Tier) newRequest() *request {
	n := len(t.free) - 1
	if n < 0 {
		return &request{}
	}
	r := t.free[n]
	t.free[n] = nil
	t.free = t.free[:n]
	*r = request{}
	return r
}

// partSize is the payload size of a part carrying ops: a 16-byte header per
// op plus its value.
func partSize(ops []workload.Op) int {
	size := 16 * len(ops)
	for _, op := range ops {
		size += op.Value
	}
	return size
}

// room returns dst emptied when it can hold n ops, else one slab that can.
func room(dst []workload.Op, n int) []workload.Op {
	if cap(dst) >= n {
		return dst[:0]
	}
	return make([]workload.Op, 0, n)
}

// split cuts r.ops into one part per owner. KV / Txn ops are grouped by
// owner stably and in place — owners in first-seen order, each owner's ops
// in request order — so message order and sizes are a function of the op
// list alone; an SMR command is one part (smrSend addresses it).
func (t *Tier) split(r *request, s *session) {
	ops := r.ops
	if t.smr != nil {
		r.parts = r.partsArr[:1]
		r.parts[0] = reqMsg{Sess: s.id, FE: s.fe, Seq: s.seq, Ops: ops}
		return
	}
	// Group: the first op not yet placed opens the next owner's run, and
	// every later op of that owner is rotated up behind it.
	n := 0
	for i := 0; i < len(ops); n++ {
		o := t.owner(ops[i].Key)
		j := i + 1
		for k := j; k < len(ops); k++ {
			if t.owner(ops[k].Key) == o {
				op := ops[k]
				copy(ops[j+1:k+1], ops[j:k])
				ops[j] = op
				j++
			}
		}
		i = j
	}
	if n <= reqInline {
		r.parts = r.partsArr[:n]
	} else {
		r.parts = make([]reqMsg, n)
	}
	for i, p := 0, 0; i < len(ops); p++ {
		o := t.owner(ops[i].Key)
		j := i + 1
		for j < len(ops) && t.owner(ops[j].Key) == o {
			j++
		}
		r.parts[p] = reqMsg{Sess: s.id, FE: s.fe, Seq: s.seq, Ops: ops[i:j:j], part: uint16(p)}
		i = j
	}
}

// send transmits the current request (also the retry path: same seq, same
// ops, same start time — latency includes every retry).
func (t *Tier) send(s *session) {
	r := s.req
	if r == nil {
		// A backoff outlived its request: the retry it was to resend lost
		// to the replies of the attempt before.
		return
	}
	if r.sent {
		// The loss-retry timer fired. The attempt before may still be in
		// flight or in an owner's station, and its parts carry the owners'
		// state: resend a copy. An attempt Process.Send refused was kept by
		// nobody and is sent again as it is.
		r = &request{resent: true}
		r.ops = append(room(r.opsArr[:0], len(s.req.ops)), s.req.ops...)
		t.split(r, s)
		s.req = r
	}
	if t.smr != nil {
		t.smrSend(s)
		return
	}
	var conflict uint32
	write := false
	for _, op := range r.ops {
		if op.Kind == workload.OpWrite {
			write = true
			if t.Cfg.Conflicts {
				conflict = uint32(op.Key) | 1
			}
			break
		}
	}
	t.msgs = t.msgs[:0]
	for i := range r.parts {
		p := &r.parts[i]
		t.msgs = append(t.msgs, onepipe.Message{
			Dst: onepipe.ProcID(t.owner(p.Ops[0].Key)), Data: p, Size: partSize(p.Ops)})
	}
	s.pending = int32(len(r.parts))
	t.transmit(s, t.sendOpts(write, conflict))
}

// transmit hands the current attempt's scattering, built in t.msgs, to the
// frontend's process.
func (t *Tier) transmit(s *session, opts []onepipe.SendOption) {
	r := s.req
	if err := t.cl.Process(int(s.fe)).Send(t.msgs, opts...); err != nil {
		// Backpressure / full buffer: hold the request and retry shortly;
		// the wait stays inside the client-observed latency. A closed
		// frontend (crashed or drained host) ends the session instead.
		if errors.Is(err, onepipe.ErrClosed) {
			s.stopped = true
			return
		}
		t.eng.After2(2*sim.Microsecond, sendEv, t, s)
		return
	}
	r.sent = true
	t.issued++
	t.armRetry(s)
}

// reliableOnly is the option list of a plain write: shared, never appended
// to.
var reliableOnly = []onepipe.SendOption{onepipe.Reliable()}

// sendOpts maps the request class onto Fabric send options; conflict is
// the scattering's conflict key, 0 for none.
func (t *Tier) sendOpts(reliable bool, conflict uint32) []onepipe.SendOption {
	if t.Cfg.BatchWindow <= 0 && conflict == 0 {
		if reliable {
			return reliableOnly
		}
		return nil
	}
	var opts []onepipe.SendOption
	if reliable {
		opts = append(opts, onepipe.Reliable())
	}
	if t.Cfg.BatchWindow > 0 {
		opts = append(opts, onepipe.Batched(t.Cfg.BatchWindow))
	}
	if conflict != 0 {
		opts = append(opts, onepipe.Conflicts(conflict))
	}
	return opts
}

// armRetry guards against lost best-effort parts (loss profiles, faults).
// It keeps its closure: RetryTimeout is 0 in every workload and figure, and
// the (ep, seq) guard does not fit the two pointer arguments of After2.
func (t *Tier) armRetry(s *session) {
	if t.Cfg.RetryTimeout <= 0 {
		return
	}
	s.retryEp++
	ep, seq := s.retryEp, s.seq
	t.eng.After(t.Cfg.RetryTimeout, func() {
		if s.retryEp != ep || s.seq != seq || s.pending == 0 {
			return
		}
		t.send(s) // same seq: owners dedup, stale replies are dropped
	})
}

func (t *Tier) owner(key uint64) int { return int(key % uint64(t.Cfg.Servers)) }

// dispatch routes one delivery by payload type: owner work or frontend
// completion (a process can be both).
func (t *Tier) dispatch(p int, d onepipe.Delivery) {
	switch m := d.Data.(type) {
	case *reqMsg:
		if t.smr != nil {
			t.smrRequest(p, m)
			return
		}
		t.serveReq(p, m)
	case *repMsg:
		t.complete(m)
	default:
		if t.smr != nil {
			t.smrDeliver(p, d)
		}
	}
}

// serveReq runs one owner's share through the CPU station, applies, and
// replies through the fabric.
func (t *Tier) serveReq(p int, m *reqMsg) {
	sh := t.shards[p]
	if sh == nil {
		return
	}
	m.owner = int32(p)
	work := len(m.Ops)
	// The dedup cursor exists only where a duplicate can: the loss-retry
	// timer is the one source of a repeated (Sess, Seq) — the fabric never
	// delivers twice, and the backoff resends only what Send refused.
	if t.Cfg.RetryTimeout > 0 {
		if m.dup = m.Seq <= sh.lastSeq[m.Sess]; m.dup {
			work = 0
		} else {
			sh.lastSeq[m.Sess] = m.Seq
		}
	}
	// The CPU station is a FIFO: the part is served once its ops clear it.
	now := t.eng.Now()
	if sh.cpuBusy < now {
		sh.cpuBusy = now
	}
	sh.cpuBusy += sim.Time(work) * t.Cfg.ServerOpCost
	t.eng.At2(sh.cpuBusy, servedEv, t, m)
}

// servedEv applies a part that cleared its owner's station and replies.
func servedEv(a, b any) {
	t, m := a.(*Tier), b.(*reqMsg)
	if !m.dup {
		sh := t.shards[int(m.owner)]
		for _, op := range m.Ops {
			sh.apply(op)
		}
	}
	t.reply(int(m.owner), m)
}

func (sh *shard) apply(op workload.Op) {
	if op.Kind == workload.OpWrite {
		sh.data[op.Key]++
	}
	sh.applied++
}

// reply answers part m from proc p out of the part's own storage. A KV /
// Txn part is delivered to one owner once, so it is filled once; where an
// SMR command can be answered twice (see smr.go) the second fill writes the
// same bytes — the reply is a function of the part — and the fabric only
// reads it.
func (t *Tier) reply(p int, m *reqMsg) {
	m.rep = repMsg{Sess: m.Sess, Seq: m.Seq, N: uint16(len(m.Ops)), part: m.part}
	t.msgs = append(t.msgs[:0], onepipe.Message{Dst: onepipe.ProcID(m.FE), Data: &m.rep, Size: 16})
	if err := t.cl.Process(p).Send(t.msgs); err != nil {
		if errors.Is(err, onepipe.ErrClosed) {
			return
		}
		t.eng.After(2*sim.Microsecond, func() { t.reply(p, m) })
	}
}

// complete handles one reply part at the frontend; the request closes once
// every part has a reply, from whichever attempt, then records
// client-observed latency and schedules the next think.
func (t *Tier) complete(m *repMsg) {
	s := t.sessions[m.Sess]
	if m.Seq != s.seq || s.pending == 0 {
		return // stale reply from a superseded retry
	}
	// Every attempt shares the seq, so one owner may answer a part twice
	// (the first attempt and its resend): only the first reply counts.
	p := &s.req.parts[m.part]
	if p.answered {
		return
	}
	p.answered = true
	s.pending--
	if s.pending > 0 {
		return
	}
	s.retryEp++ // cancel the loss-retry timer
	now := t.eng.Now()
	lat := now - s.start
	s.done++
	if t.measuring && !s.stopped {
		t.delivered++
		t.hist.Add(float64(lat) / 1000) // µs
	}
	if t.Cfg.RecordLog {
		t.log = appendLogLine(t.log, m.Sess, m.Seq, now, lat, len(s.req.ops))
	}
	// Every part of the request has been answered, so no owner, station or
	// scattering still reads it, unless it is a loss-retry copy (an earlier
	// attempt's reply may have closed it while its own parts are still out)
	// or an SMR command (whose one part can be answered twice).
	if r := s.req; !r.resent && t.smr == nil {
		t.free = append(t.free, r)
	}
	s.req = nil // nothing request-sized stays reachable while the session thinks
	if s.stopped || (t.Cfg.MaxRequests > 0 && s.done >= t.Cfg.MaxRequests) {
		return
	}
	t.eng.After2(workload.ExpDraw(&s.rng, t.Cfg.ThinkTime), issueEv, t, s)
}

// appendLogLine appends "s=%d q=%d at=%d lat=%d n=%d\n" without fmt's
// boxed arguments and intermediate string.
func appendLogLine(b []byte, sess int32, seq uint32, at, lat sim.Time, n int) []byte {
	b = strconv.AppendInt(append(b, "s="...), int64(sess), 10)
	b = strconv.AppendUint(append(b, " q="...), uint64(seq), 10)
	b = strconv.AppendInt(append(b, " at="...), int64(at), 10)
	b = strconv.AppendInt(append(b, " lat="...), int64(lat), 10)
	b = strconv.AppendInt(append(b, " n="...), int64(n), 10)
	return append(b, '\n')
}

// --- measurement windows ---

// StartMeasure opens a measurement window.
func (t *Tier) StartMeasure() {
	t.measuring = true
	t.delivered, t.issued = 0, 0
	t.hist.Reset()
	t.winStart = t.eng.Now()
}

// StopMeasure closes the window and returns its Result.
func (t *Tier) StopMeasure() Result {
	t.measuring = false
	return Result{
		Delivered: t.delivered,
		Issued:    t.issued,
		P50:       t.hist.Percentile(50),
		P99:       t.hist.Percentile(99),
		P999:      t.hist.Percentile(99.9),
		Mean:      t.hist.Mean(),
		Window:    t.eng.Now() - t.winStart,
	}
}

// RunLoad is the standard figure drive: start the pool, warm up, measure
// one window.
func (t *Tier) RunLoad(warmup, window sim.Time) Result {
	t.Start()
	t.cl.Run(warmup)
	t.StartMeasure()
	t.cl.Run(window)
	return t.StopMeasure()
}

// RunToCompletion drives until every session finished Cfg.MaxRequests (or
// limit elapses); it returns true on full completion. Unbounded sessions
// (MaxRequests 0) never complete: it runs to limit and returns false.
func (t *Tier) RunToCompletion(limit sim.Time) bool {
	t.Start()
	if t.Cfg.MaxRequests <= 0 {
		t.cl.Run(limit)
		return false
	}
	deadline := t.eng.Now() + limit
	for t.eng.Now() < deadline {
		done := true
		for _, s := range t.sessions {
			if !s.stopped && s.done < t.Cfg.MaxRequests {
				done = false
				break
			}
		}
		if done {
			return true
		}
		t.cl.Run(20 * sim.Microsecond)
	}
	return false
}

// --- elasticity hooks ---

// AddFrontends attaches newly joined processes as frontends and grows the
// pool by count sessions on them (starting immediately, staggered).
func (t *Tier) AddFrontends(procs []int, count int) {
	for _, p := range procs {
		t.attach(p)
	}
	t.frontends = append(t.frontends, procs...)
	t.addSessions(procs, count, t.eng.Now()+1)
}

// StopFrontend quiesces every session on proc p (an operational drain:
// traffic stops first, then the host leaves the fabric). It returns how
// many sessions it stopped.
func (t *Tier) StopFrontend(p int) int {
	n := 0
	for _, s := range t.sessions {
		if int(s.fe) == p && !s.stopped {
			s.stopped = true
			n++
		}
	}
	return n
}

// Sessions returns the pool size; Completed sums finished requests.
func (t *Tier) Sessions() int { return len(t.sessions) }

// Completed returns total requests finished since Start.
func (t *Tier) Completed() int {
	n := 0
	for _, s := range t.sessions {
		n += s.done
	}
	return n
}

// Log returns the recorded request/response log (RecordLog).
func (t *Tier) Log() []byte { return t.log }

// StateDigest folds every shard's (owner, key, version) triples — sorted,
// so map order never leaks in — into one FNV-1a digest, plus total ops
// applied. Identical digests across runs / harnesses mean identical serving
// state.
func (t *Tier) StateDigest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	owners := make([]int, 0, len(t.shards))
	for o := range t.shards {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		sh := t.shards[o]
		keys := make([]uint64, 0, len(sh.data))
		for k := range sh.data {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		mix(uint64(o))
		for _, k := range keys {
			mix(k)
			mix(sh.data[k])
		}
	}
	if t.smr != nil {
		for _, d := range t.smrDigests() {
			mix(d)
		}
	}
	return h
}

// AppliedOps sums ops applied across owners (reads + writes).
func (t *Tier) AppliedOps() uint64 {
	var n uint64
	for _, sh := range t.shards {
		n += sh.applied
	}
	return n
}
