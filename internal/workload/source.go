package workload

import (
	"container/heap"
	"math"
	"math/rand"

	"onepipe/internal/sim"
)

// SendOpts carries the per-intent delivery options a driver maps onto the
// fabric's send options (Reliable(), Conflicts(key), Unbatched()).
type SendOpts struct {
	Reliable    bool
	ConflictKey uint32
	Unbatched   bool
}

// Intent is one timestamped send: at time At, process Src scatters Size
// bytes to Dsts. Dsts is read-only: the generators carve it from storage
// shared with other intents, which they never rewrite, so it stays valid
// for as long as the intent is kept.
type Intent struct {
	At   sim.Time
	Src  int
	Dsts []int
	Size int
	Opts SendOpts
}

// Source is a deterministic, seedable stream of send intents in
// nondecreasing At order. Next returns ok=false when the stream is
// exhausted (unbounded sources never are; drivers stop pulling when the
// experiment window closes). Determinism contract: a Source derives every
// draw from the RNG(s) it was constructed with — two sources built with
// equal parameters and equal seeds emit identical streams, and a bounded
// stream drained into a slice replays exactly through NewReplay.
type Source interface {
	Next() (Intent, bool)
}

// --- Replay ---

// Replay is a Source over a fixed slice of intents.
type Replay struct {
	its []Intent
	i   int
}

// NewReplay builds a source replaying its verbatim; its must be in
// nondecreasing At order and is not copied.
func NewReplay(its []Intent) *Replay { return &Replay{its: its} }

// Next replays the next intent.
func (r *Replay) Next() (Intent, bool) {
	if r.i >= len(r.its) {
		return Intent{}, false
	}
	it := r.its[r.i]
	r.i++
	return it, true
}

// dstChunk is how many destinations a generator's dstArena makes room for
// at a time: at fanout 4 one allocation serves 256 intents.
const dstChunk = 1024

// dstArena is a generator's own storage for the Dsts of the intents it
// emits. It carves each from a chunk it never writes again, with its
// capacity capped so an append by the holder copies, and starts a new
// chunk when one runs out; an old chunk lives as long as an intent that
// was carved from it.
type dstArena []int

// carve returns n zeroed destinations to fill.
func (a *dstArena) carve(n int) []int {
	if len(*a) < n {
		*a = make([]int, max(dstChunk, n))
	}
	d := (*a)[:n:n]
	*a = (*a)[n:]
	return d
}

// one returns a single-destination Dsts.
func (a *dstArena) one(dst int) []int {
	d := a.carve(1)
	d[0] = dst
	return d
}

// --- Round-robin broadcast (the Fig. 8 pattern) ---

// RoundRobin emits the paper's §7.2 all-to-all pattern: every process sends
// fixed-size messages round-robin to all peers at a fixed per-process rate,
// phase-staggered so process i's sends lead process i+1's within each gap.
// Entirely rng-free: the schedule is a pure function of (procs, gap, size).
type RoundRobin struct {
	procs int
	gap   sim.Time
	size  int
	rel   bool
	round int64
	pi    int
	next  []int // per-process round-robin destination cursor
	dsts  dstArena
}

// NewRoundRobin builds the broadcast source. gap is the per-process send
// interval (1/rate); rel marks every intent reliable.
func NewRoundRobin(procs int, gap sim.Time, size int, rel bool) *RoundRobin {
	next := make([]int, procs)
	for i := range next {
		next[i] = i + 1
	}
	return &RoundRobin{procs: procs, gap: gap, size: size, rel: rel, next: next}
}

// Next emits intents in (round, process) order; within one round process
// phases are pi*gap/procs, all below gap, so time order holds globally.
func (r *RoundRobin) Next() (Intent, bool) {
	pi, round := r.pi, r.round
	r.pi++
	if r.pi == r.procs {
		r.pi = 0
		r.round++
	}
	dst := r.next[pi] % r.procs
	if dst == pi {
		r.next[pi]++
		dst = r.next[pi] % r.procs
	}
	r.next[pi]++
	phase := sim.Time(int64(pi) * int64(r.gap) / int64(r.procs))
	// The first tick of a phase-staggered ticker fires at phase+gap (a
	// ticker never fires at its arming instant), so round 0 lands there.
	at := phase + sim.Time(round+1)*r.gap
	return Intent{At: at, Src: pi, Dsts: r.dsts.one(dst), Size: r.size,
		Opts: SendOpts{Reliable: r.rel}}, true
}

// --- Fixed periodic stream (background-load tickers as a Source) ---

// FixedStream emits one fixed scattering every Gap, first at Phase+Gap —
// exactly the schedule of a phase-staggered background-load ticker (a
// ticker never fires at its arming instant), but as a Source so it can be
// merged, limited and replayed. Entirely rng-free.
type FixedStream struct {
	src   int
	dsts  []int
	gap   sim.Time
	phase sim.Time
	size  int
	opts  SendOpts
	k     int64
}

// NewFixedStream builds the periodic source: src scatters size bytes to
// dsts every gap, offset by phase.
func NewFixedStream(src int, dsts []int, gap, phase sim.Time, size int, opts SendOpts) *FixedStream {
	return &FixedStream{src: src, dsts: append([]int(nil), dsts...), gap: gap,
		phase: phase, size: size, opts: opts}
}

// Next emits the k-th tick at phase + k*gap (k >= 1); the stream is
// unbounded — wrap it in Limit to stop it.
func (f *FixedStream) Next() (Intent, bool) {
	f.k++
	return Intent{At: f.phase + sim.Time(f.k)*f.gap, Src: f.src,
		Dsts: f.dsts, Size: f.size, Opts: f.opts}, true
}

// --- Synthetic aggregate stream ---

// RateFn scales a Synthetic source's instantaneous rate at time t (1 =
// nominal). Used for diurnal ramps; nil means constant rate.
type RateFn func(t sim.Time) float64

// Diurnal returns a sinusoidal rate ramp oscillating between lo and hi with
// the given period — a day compressed into a simulation window.
func Diurnal(period sim.Time, lo, hi float64) RateFn {
	mid, amp := (lo+hi)/2, (hi-lo)/2
	return func(t sim.Time) float64 {
		return mid + amp*math.Sin(2*math.Pi*float64(t)/float64(period))
	}
}

// SizeDist draws message sizes. ETCSize is the heavy-tailed adapter over the
// package's existing ETC value-size distribution.
type SizeDist func(rng *rand.Rand) int

// FixedSize returns a degenerate size distribution.
func FixedSize(n int) SizeDist { return func(*rand.Rand) int { return n } }

// ETCSize is the heavy-tailed ETC distribution as a SizeDist.
var ETCSize SizeDist = ETCValueSize

// SyntheticConfig parameterizes a Synthetic source.
type SyntheticConfig struct {
	Procs int
	// MeanGap is the mean inter-intent gap of the aggregate stream
	// (exponential arrivals across all processes combined).
	MeanGap sim.Time
	// Fanout is the destination count per intent (default 1).
	Fanout int
	// Size draws the message size (default FixedSize(64)).
	Size SizeDist
	// ZipfTheta, when nonzero, skews destination popularity Zipfian with
	// this parameter (process 0 hottest); zero picks uniformly.
	ZipfTheta float64
	// Rate modulates the arrival rate over time (nil = constant).
	Rate RateFn
	// ReliableFrac is the probability an intent is sent reliable.
	ReliableFrac float64
	// Stop bounds the stream, which starts at time 0; 0 means unbounded.
	Stop sim.Time
	Seed int64
}

// Synthetic is an rng-driven aggregate source: exponential arrivals, skewed
// destination popularity, heavy-tailed sizes, and a time-varying rate.
type Synthetic struct {
	cfg  SyntheticConfig
	rng  *rand.Rand
	zipf *Zipf
	now  sim.Time
	dsts []int // scratch for the draw
	out  dstArena
}

// NewSynthetic builds the source; all randomness derives from cfg.Seed.
func NewSynthetic(cfg SyntheticConfig) *Synthetic {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 1
	}
	if cfg.Size == nil {
		cfg.Size = FixedSize(64)
	}
	s := &Synthetic{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ZipfTheta > 0 {
		s.zipf = NewZipf(s.rng, uint64(cfg.Procs), cfg.ZipfTheta)
	}
	return s
}

// Next draws the next intent.
func (s *Synthetic) Next() (Intent, bool) {
	rate := 1.0
	if s.cfg.Rate != nil {
		rate = s.cfg.Rate(s.now)
		if rate <= 0 {
			rate = 1e-3
		}
	}
	gap := float64(s.cfg.MeanGap) / rate * s.rng.ExpFloat64()
	s.now += sim.Time(gap) + 1
	if s.cfg.Stop > 0 && s.now >= s.cfg.Stop {
		return Intent{}, false
	}
	src := s.rng.Intn(s.cfg.Procs)
	s.dsts = s.dsts[:0]
	for len(s.dsts) < s.cfg.Fanout {
		var d int
		if s.zipf != nil {
			d = int(s.zipf.Next())
		} else {
			d = s.rng.Intn(s.cfg.Procs)
		}
		if d == src {
			d = (d + 1) % s.cfg.Procs
		}
		dup := false
		for _, e := range s.dsts {
			if e == d {
				dup = true
			}
		}
		if dup {
			continue
		}
		s.dsts = append(s.dsts, d)
	}
	dsts := s.out.carve(len(s.dsts))
	copy(dsts, s.dsts)
	it := Intent{At: s.now, Src: src, Dsts: dsts, Size: s.cfg.Size(s.rng)}
	if s.cfg.ReliableFrac > 0 && s.rng.Float64() < s.cfg.ReliableFrac {
		it.Opts.Reliable = true
	}
	return it, true
}

// --- Incast bursts ---

// Incast emits periodic fan-in bursts: every Period, Fanin distinct senders
// (rotating through the process space) each send one Size-byte message to
// Victim at the same instant — the pattern that stresses receiver reorder
// memory and tail latency.
type Incast struct {
	Procs, Victim, Fanin int
	Period               sim.Time
	Size                 int
	Start, Stop          sim.Time
	burst                int64
	i                    int
	dsts                 dstArena
}

// NewIncast builds the burst source.
func NewIncast(procs, victim, fanin int, period sim.Time, size int, start, stop sim.Time) *Incast {
	return &Incast{Procs: procs, Victim: victim, Fanin: fanin, Period: period,
		Size: size, Start: start, Stop: stop}
}

// Next emits the burst members in sender order, then advances the period.
func (in *Incast) Next() (Intent, bool) {
	at := in.Start + sim.Time(in.burst+1)*in.Period
	if in.Stop > 0 && at >= in.Stop {
		return Intent{}, false
	}
	// Rotate the sender set burst to burst so no fixed host pays the cost.
	src := (in.Victim + 1 + in.i + int(in.burst)*in.Fanin) % in.Procs
	if src == in.Victim {
		src = (src + 1) % in.Procs
	}
	in.i++
	if in.i == in.Fanin {
		in.i = 0
		in.burst++
	}
	return Intent{At: at, Src: src, Dsts: in.dsts.one(in.Victim), Size: in.Size}, true
}

// --- Merge ---

type mergeItem struct {
	it  Intent
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].it.At != h[j].it.At {
		return h[i].it.At < h[j].it.At
	}
	return h[i].src < h[j].src // deterministic tie-break: source index
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Merged interleaves several sources into one time-ordered stream (ties
// break by constructor order, deterministically).
type Merged struct {
	srcs []Source
	h    mergeHeap
	init bool
}

// Merge combines sources into one stream.
func Merge(srcs ...Source) *Merged { return &Merged{srcs: srcs} }

// Next returns the earliest pending intent across all member sources.
func (m *Merged) Next() (Intent, bool) {
	if !m.init {
		m.init = true
		for i, s := range m.srcs {
			if it, ok := s.Next(); ok {
				m.h = append(m.h, mergeItem{it, i})
			}
		}
		heap.Init(&m.h)
	}
	if len(m.h) == 0 {
		return Intent{}, false
	}
	top := m.h[0]
	if it, ok := m.srcs[top.src].Next(); ok {
		m.h[0] = mergeItem{it, top.src}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.it, true
}

// --- Limit ---

// Limited truncates a source at a stop time.
type Limited struct {
	src  Source
	stop sim.Time
}

// Limit stops the stream at the first intent with At >= stop.
func Limit(src Source, stop sim.Time) *Limited { return &Limited{src: src, stop: stop} }

// Next forwards until the stop time.
func (l *Limited) Next() (Intent, bool) {
	it, ok := l.src.Next()
	if !ok || it.At >= l.stop {
		return Intent{}, false
	}
	return it, true
}

// --- Transactions ---

// TxnSource is a stream of KV transactions; TxnGen is the canonical
// implementation. kvstore accepts any TxnSource, which is how alternative
// key/size distributions or trace-derived transaction mixes plug in.
type TxnSource interface {
	Next() []Op
}
