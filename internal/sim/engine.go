// Package sim implements a deterministic discrete-event simulation engine.
//
// All of the network simulation in this repository is driven by a single
// Engine: entities schedule closures at virtual timestamps, and the engine
// executes them in (time, sequence) order. Determinism is guaranteed by the
// FIFO tie-break on equal timestamps and by the seeded random source, so a
// simulation run is exactly reproducible from its seed.
//
// The engine keeps three queues under that one order. Everything due less
// than wheelSize nanoseconds ahead — one-shot events and armed Timers alike,
// nearly all entries — sits in a timing wheel with one doubly linked FIFO
// per nanosecond: scheduling, executing, and a Timer's Stop or Reset are
// O(1) with no data-dependent branch. One-shot events due later sit in a
// monomorphic 4-ary min-heap over the concrete event struct, and Timers
// armed that far ahead in a second, indexed 4-ary min-heap (timer.go), so
// that Stop and Reset take the entry out instead of leaving it to fire as a
// no-op. No queue allocates per entry once its backing array has grown to
// the working set, all three draw their (time, seq) keys from the same
// counter, every key is unique, and the engine always executes the smallest
// of the three heads — the execution order is that of a single queue
// holding exactly the live entries.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is the same unit as the 48-bit message timestamps in the
// 1Pipe packet header.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with microsecond granularity for logs.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is one queue entry. Its two arguments travel inline, so hot callers
// (netsim's per-packet transmit/receive hops) schedule without allocating a
// capturing closure — pointer-shaped arguments box into `any` for free. A
// plain func() is scheduled as runFunc with the func as its argument.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events with equal time
	fn2  func(a, b any)
	a, b any
}

func runFunc(a, _ any) { a.(func())() }

// wheelBits sizes the timing wheel: 4 096 one-nanosecond slots, the smallest
// power of two that keeps >= 98.6 % of the events out of the heap on all
// four benchmark workloads (docs/performance.md "Event queue": due >= 4 096
// ns ahead are 0 / 0.018 % / 0 / 1.41 % of the events scheduled by bcast-be /
// scatter-rel-loss / sparse-fabric / serve-kv).
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wnode is one wheel entry in the slab: the event plus the links to the next
// and previous entries of its slot's FIFO (slab index plus one, 0 = none);
// a node on the free list uses next only. 64 bytes, one cache line.
type wnode struct {
	event
	next, prev uint32
}

// wslot is one nanosecond's FIFO of slab indices plus one (0 = empty).
type wslot struct{ head, tail uint32 }

// Engine is a discrete-event simulation loop.
//
// The zero value is not usable; construct with NewEngine.
//
// Why the wheel cannot move the order: (1) an entry enters slot at&wheelMask
// only while now <= at < now+wheelSize and now never decreases, so two
// entries that share a slot at the same moment have the same at; (2) every
// insertion draws a fresh seq and appends at its slot's tail, and unlinking
// a stopped or re-armed Timer never reorders the rest, so a slot's FIFO is
// in seq order and its head carries the slot's smallest key; (3) every key
// is unique, so comparing the three heads on (at, seq) selects exactly the
// entry a single queue of the live entries would.
type Engine struct {
	now    Time
	seq    uint64
	events []event      // far events: 4-ary min-heap ordered by (at, seq)
	timers []timerEntry // far Timers: indexed 4-ary min-heap, same key space
	rng    *rand.Rand

	// The wheel holds every event scheduled and every Timer armed less than
	// wheelSize ahead. wbits has one bit per occupied slot and wsum one bit
	// per non-zero wbits word; wnodes is the slab, recycled LIFO through the
	// free list wfree.
	wheel  [wheelSize]wslot
	wbits  [wheelSize / 64]uint64
	wsum   uint64
	wnodes []wnode
	wfree  uint32
	wn     int // entries in the wheel

	// Executed counts events and timer firings run so far; useful as a
	// progress and runaway-loop diagnostic.
	Executed uint64
}

// NewEngine returns an engine at time zero with a deterministic random
// source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All randomness in a
// simulation (loss, jitter, workload) must come from here to keep runs
// reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// push inserts ev, sifting up through 4-ary parents. The held element is
// written once at its final slot instead of swapping pairwise.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < ev.at || (h[p].at == ev.at && h[p].seq < ev.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array does not retain closures or boxed arguments.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
					m = j
				}
			}
			if last.at < h[m].at || (last.at == h[m].at && last.seq < h[m].seq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// nextSeq draws the next FIFO sequence number.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// schedule clamps t to the present, assigns the FIFO sequence number and
// files fn(a, b) by its distance from now: into its nanosecond's wheel slot
// when that is below wheelSize, else into the heap. Nothing migrates
// between the two afterwards. On the wheel path the fields are written
// straight into the slab node: building an event on the stack and copying
// it in stalls on store forwarding (docs/performance.md "Event queue").
func (e *Engine) schedule(t Time, fn func(a, b any), a, b any) {
	now := e.now
	if t < now {
		t = now
	}
	seq := e.nextSeq()
	if t-now >= wheelSize {
		e.push(event{at: t, seq: seq, fn2: fn, a: a, b: b})
		return
	}
	e.link(e.newNode(), t, seq, fn, a, b)
}

// newNode takes a node off the free list, or grows the slab by one.
func (e *Engine) newNode() uint32 {
	if i := e.wfree; i != 0 {
		e.wfree = e.wnodes[i-1].next
		return i
	}
	e.wnodes = append(e.wnodes, wnode{})
	return uint32(len(e.wnodes))
}

// link writes an entry into node i and appends it at the tail of slot
// at&wheelMask; at must lie in [now, now+wheelSize).
func (e *Engine) link(i uint32, at Time, seq uint64, fn func(a, b any), a, b any) {
	n := &e.wnodes[i-1]
	n.at, n.seq, n.fn2, n.a, n.b = at, seq, fn, a, b
	s := uint(at) & wheelMask
	sl := &e.wheel[s]
	n.next, n.prev = 0, sl.tail
	if sl.tail == 0 {
		sl.head = i
		e.wbits[s>>6] |= 1 << (s & 63)
		e.wsum |= 1 << (s >> 6)
	} else {
		e.wnodes[sl.tail-1].next = i
	}
	sl.tail = i
	e.wn++
}

// unlink takes node i out of its slot's FIFO, wherever it sits in it; the
// node keeps its payload and is not freed.
func (e *Engine) unlink(i uint32) {
	n := &e.wnodes[i-1]
	s := uint(n.at) & wheelMask
	sl := &e.wheel[s]
	if n.prev == 0 {
		sl.head = n.next
	} else {
		e.wnodes[n.prev-1].next = n.next
	}
	if n.next == 0 {
		sl.tail = n.prev
	} else {
		e.wnodes[n.next-1].prev = n.prev
	}
	if sl.head == 0 {
		e.clearSlot(s)
	}
	e.wn--
}

// clearSlot drops an emptied slot's occupancy bits.
func (e *Engine) clearSlot(s uint) {
	if e.wbits[s>>6] &^= 1 << (s & 63); e.wbits[s>>6] == 0 {
		e.wsum &^= 1 << (s >> 6)
	}
}

// free clears node i's payload, so the slab does not retain closures or
// boxed arguments, and puts it on the free list. The pointer fields are
// cleared one by one: assigning a whole zero node copies it from the stack.
func (e *Engine) free(i uint32) {
	n := &e.wnodes[i-1]
	n.fn2, n.a, n.b = nil, nil, nil
	n.next = e.wfree
	e.wfree = i
}

// wheelHead returns the wheel's earliest event; the wheel must not be empty.
// Every event in it is due in [now, now+wheelSize), so that is the head of
// the first occupied slot in a circular scan from now's own: the rest of
// the current bitmap word, then later words, then the wrap-around.
func (e *Engine) wheelHead() *wnode {
	s := uint(e.Now()) & wheelMask
	w := s >> 6
	if m := e.wbits[w] >> (s & 63); m != 0 {
		s += uint(bits.TrailingZeros64(m))
	} else {
		if m = e.wsum &^ (1<<(w+1) - 1); m == 0 {
			m = e.wsum
		}
		w = uint(bits.TrailingZeros64(m))
		s = w<<6 + uint(bits.TrailingZeros64(e.wbits[w]))
	}
	return &e.wnodes[e.wheel[s].head-1]
}

// popWheel removes the head of the slot of time at, frees its node and
// returns its callback and arguments.
func (e *Engine) popWheel(at Time) (fn func(a, b any), a, b any) {
	s := uint(at) & wheelMask
	sl := &e.wheel[s]
	i := sl.head
	n := &e.wnodes[i-1]
	fn, a, b = n.fn2, n.a, n.b
	if sl.head = n.next; sl.head == 0 {
		sl.tail = 0
		e.clearSlot(s)
	} else {
		e.wnodes[sl.head-1].prev = 0
	}
	e.free(i)
	e.wn--
	return fn, a, b
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event runs next, after already-pending
// events at the current time).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, runFunc, fn, nil)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.Now()+d, fn) }

// At2 schedules fn(a, b) at absolute virtual time t. Unlike At, no closure
// is needed: callers keep one capture-free fn per call site and pass the
// state as arguments, which makes scheduling allocation-free when a and b
// are pointer-shaped (pointers, funcs, channels, maps).
func (e *Engine) At2(t Time, fn func(a, b any), a, b any) {
	e.schedule(t, fn, a, b)
}

// After2 schedules fn(a, b) to run d nanoseconds from now.
func (e *Engine) After2(d Time, fn func(a, b any), a, b any) {
	e.At2(e.Now()+d, fn, a, b)
}

// Step executes the next pending event or timer firing, advancing virtual
// time. It reports whether one was executed.
func (e *Engine) Step() bool { return e.stepUntil(math.MaxInt64) }

// The queue an entry is taken from, as returned by next.
const (
	qNone = iota
	qWheel
	qHeap
	qTimer
)

// next returns which queue holds the earliest entry — the smallest (at, seq)
// of the wheel's, the heap's and the timer heap's heads — and its key.
func (e *Engine) next() (q int, at Time, seq uint64) {
	if e.wn > 0 {
		n := e.wheelHead()
		q, at, seq = qWheel, n.at, n.seq
	}
	if len(e.events) > 0 {
		if h := &e.events[0]; q == qNone || h.at < at || (h.at == at && h.seq < seq) {
			q, at, seq = qHeap, h.at, h.seq
		}
	}
	if len(e.timers) > 0 {
		if h := &e.timers[0]; q == qNone || h.at < at || (h.at == at && h.seq < seq) {
			q, at, seq = qTimer, h.at, h.seq
		}
	}
	return q, at, seq
}

// stepUntil executes the earliest queued entry provided its timestamp is at
// most limit, and reports whether it did.
func (e *Engine) stepUntil(limit Time) bool {
	q, at, _ := e.next()
	if q == qNone || at > limit {
		return false
	}
	var fn func(a, b any)
	var a, b any
	switch q {
	case qWheel:
		fn, a, b = e.popWheel(at)
	case qHeap:
		ev := e.pop()
		fn, a, b = ev.fn2, ev.a, ev.b
	default:
		e.fireTimer()
		return true
	}
	e.now = at
	e.Executed++
	fn(a, b)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// current time to the deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.Now() + d) }

// Pending reports the number of queued events plus armed timers. A stopped
// or re-armed Timer leaves nothing behind, so the count is exact.
func (e *Engine) Pending() int { return e.wn + len(e.events) + len(e.timers) }

// Drain discards every queued event, disarms every armed timer and returns
// how many entries that was. Use it at shutdown to account for work the
// simulation never executed; after Drain the queues are empty, Pending
// reports zero, and the disarmed timers can be armed again.
func (e *Engine) Drain() int {
	n := e.Pending()
	for i := range e.events {
		e.events[i] = event{}
	}
	e.events = e.events[:0]
	for i := range e.timers {
		e.timers[i].t.idx = 0
		e.timers[i] = timerEntry{}
	}
	e.timers = e.timers[:0]
	for i := range e.wnodes {
		if t, ok := e.wnodes[i].a.(*wheelTimer); ok {
			t.idx = 0
		}
	}
	clear(e.wnodes)
	e.wnodes = e.wnodes[:0]
	e.wheel, e.wbits = [wheelSize]wslot{}, [wheelSize / 64]uint64{}
	e.wsum, e.wfree, e.wn = 0, 0, 0
	return n
}

// NextEventTime returns the timestamp of the earliest queued event or timer
// firing and whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	q, at, _ := e.next()
	return at, q != qNone
}
