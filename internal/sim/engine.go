// Package sim implements a deterministic discrete-event simulation engine.
//
// All of the network simulation in this repository is driven by a single
// Engine: entities schedule closures at virtual timestamps, and the engine
// executes them in (time, sequence) order. Determinism is guaranteed by the
// FIFO tie-break on equal timestamps and by the seeded random source, so a
// simulation run is exactly reproducible from its seed.
//
// The engine keeps one queue: a two-level timing wheel (Varghese & Lauck,
// "Hashed and hierarchical timing wheels", SOSP 1987) over a slab of entries.
// Time is cut into aligned blocks of wheelSize nanoseconds. The fine level
// holds the current block and the next one with one FIFO per nanosecond; the
// coarse level holds every later block with one FIFO per block number mod
// wheelSize, so a slot covers about 16.8 ms of blocks per turn and an entry
// due turns ahead waits in its slot for its turn. When time enters a block,
// the coarse entries of the block after it cascade into the fine level.
// One-shot events and armed Timers alike are entries, so scheduling,
// executing, and a Timer's Stop or Reset are O(1), nothing allocates per
// entry once the slab has grown to the working set, and the engine always
// executes the head of the earliest fine FIFO.
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

func runFunc(a, _ any) { a.(func())() }

// wheelBits sizes both wheel levels: 4 096 slots each, so a block is 4 096
// ns. All but 0 / 0.018 % / 0 / 1.41 % of the events bcast-be /
// scatter-rel-loss / sparse-fabric / serve-kv schedule are due less than a
// block ahead (docs/performance.md "Event queue"), which always lands them
// in the fine level directly.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wnode is one queue entry in the slab: its due time, its callback with the
// two arguments travelling inline — hot callers (netsim's per-packet hops)
// schedule without allocating a capturing closure, and pointer-shaped
// arguments box into `any` for free — and the links to the next and previous
// entries of its FIFO (slab index plus one, 0 = none); a node on the free
// list uses next only. A plain func() is scheduled as runFunc with the func
// as its argument. The pad makes a node one cache line.
type wnode struct {
	at         Time
	fn2        func(a, b any)
	a, b       any
	next, prev uint32
	_          uint64
}

// wslot is one FIFO of slab indices plus one (0 = empty).
type wslot struct{ head, tail uint32 }

// level is one wheel level: a FIFO per slot, one occupancy bit per slot and
// one summary bit per non-zero bitmap word.
type level struct {
	slots [wheelSize]wslot
	bits  [wheelSize / 64]uint64
	sum   uint64
}

func (l *level) mark(s uint) {
	l.bits[s>>6] |= 1 << (s & 63)
	l.sum |= 1 << (s >> 6)
}

func (l *level) clear(s uint) {
	if l.bits[s>>6] &^= 1 << (s & 63); l.bits[s>>6] == 0 {
		l.sum &^= 1 << (s >> 6)
	}
}

// first returns the first occupied slot in a circular scan from s: the rest
// of s's bitmap word, then later words, then the wrap-around. The level
// must not be empty.
func (l *level) first(s uint) uint {
	w := s >> 6
	if m := l.bits[w] >> (s & 63); m != 0 {
		return s + uint(bits.TrailingZeros64(m))
	}
	m := l.sum &^ (1<<(w+1) - 1)
	if m == 0 {
		m = l.sum
	}
	w = uint(bits.TrailingZeros64(m))
	return w<<6 + uint(bits.TrailingZeros64(l.bits[w]))
}

// Engine is a discrete-event simulation loop.
//
// The zero value is not usable; construct with NewEngine.
//
// Why the wheel cannot move the order. Where an entry lives is a function of
// its block b = at>>wheelBits and of now's block cb alone (slot): fine[b&1]
// slot at&wheelMask while b <= cb+1, else coarse slot b&wheelMask. (1) Two
// entries in one fine FIFO therefore have the same at. (2) Every FIFO is in
// scheduling order: an insertion appends at the tail, and unlinking a
// stopped or re-armed Timer reorders nothing. A block's entries reach the
// fine level in scheduling order too: they all sit in one coarse FIFO, and
// cascade moves them, in FIFO order, into a fine level that had been closed
// to the block until then — so everything scheduled while the block was far
// precedes everything scheduled once it is near, and no merge by seq is
// needed. (3) Time advances only to an entry's at or to a block start no
// entry precedes, so the earliest fine FIFO's head is the entry a single
// queue of the live entries would run next.
type Engine struct {
	now Time
	cb  Time // now's block, now>>wheelBits
	rng *rand.Rand

	fine [2]level // blocks cb and cb+1, by block parity
	// coarse holds blocks cb+2 on, by block mod wheelSize. Only tests and
	// experiment phases scheduled up front (chaos plans, -fig timelines)
	// arm more than one turn ahead (docs/performance.md "Event queue").
	coarse level

	// wnodes is the slab, recycled LIFO through the free list wfree; wn
	// counts the live entries.
	wnodes []wnode
	wfree  uint32
	wn     int

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

// newNode takes a node off the free list, or grows the slab by one.
func (e *Engine) newNode() uint32 {
	if i := e.wfree; i != 0 {
		e.wfree = e.wnodes[i-1].next
		return i
	}
	e.wnodes = append(e.wnodes, wnode{})
	return uint32(len(e.wnodes))
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

// append links node i at the tail of sl and reports whether sl was empty.
func (e *Engine) append(sl *wslot, i uint32) bool {
	n := &e.wnodes[i-1]
	n.next, n.prev = 0, sl.tail
	empty := sl.tail == 0
	if empty {
		sl.head = i
	} else {
		e.wnodes[sl.tail-1].next = i
	}
	sl.tail = i
	return empty
}

// cut unlinks node i from sl, wherever it sits, and reports whether sl is
// now empty; the node keeps its payload and is not freed.
func (e *Engine) cut(sl *wslot, i uint32) bool {
	n := &e.wnodes[i-1]
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
	return sl.head == 0
}

// slot returns the level and slot of an entry due at, not before now.
func (e *Engine) slot(at Time) (*level, uint) {
	if b := at >> wheelBits; b > e.cb+1 {
		return &e.coarse, uint(b) & wheelMask
	}
	return &e.fine[at>>wheelBits&1], uint(at) & wheelMask
}

// place files node i, whose at is set, at the tail of its slot.
func (e *Engine) place(i uint32) {
	if l, s := e.slot(e.wnodes[i-1].at); e.append(&l.slots[s], i) {
		l.mark(s)
	}
}

// unlink takes node i out of the FIFO place filed it in.
func (e *Engine) unlink(i uint32) {
	if l, s := e.slot(e.wnodes[i-1].at); e.cut(&l.slots[s], i) {
		l.clear(s)
	}
}

// schedule clamps t to the present and files fn(a, b) at t. The fields are
// written straight into the slab node: building an entry on the stack and
// copying it in stalls on store forwarding (docs/performance.md "Event
// queue").
func (e *Engine) schedule(t Time, fn func(a, b any), a, b any) {
	if t < e.now {
		t = e.now
	}
	i := e.newNode()
	n := &e.wnodes[i-1]
	n.at, n.fn2, n.a, n.b = t, fn, a, b
	e.place(i)
	e.wn++
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

// stepUntil executes the earliest queued entry provided its timestamp is at
// most limit, and reports whether it did. When the current block has
// nothing left it first moves time to the start of the next block that
// holds an entry, if that is within limit.
func (e *Engine) stepUntil(limit Time) bool {
	for {
		l := &e.fine[e.cb&1]
		if l.sum != 0 {
			s := l.first(uint(e.now) & wheelMask)
			sl := &l.slots[s]
			i := sl.head
			n := &e.wnodes[i-1]
			at := n.at
			if at > limit {
				return false
			}
			fn, a, b := n.fn2, n.a, n.b
			if e.cut(sl, i) {
				l.clear(s)
			}
			e.free(i)
			e.wn--
			e.now = at
			e.Executed++
			fn(a, b)
			return true
		}
		nb, ok := e.nextBlock()
		if !ok || nb<<wheelBits > limit {
			return false
		}
		e.now = nb << wheelBits
		e.enter(nb)
	}
}

// nextBlock returns a lower bound on the block of the earliest entry not
// in fine[cb&1]: cb+1 if the other fine level holds any, else the block
// the first occupied coarse slot stands for in the turn from cb+2. An
// entry turns ahead makes that a block with nothing due, which entering
// costs one step per turn.
func (e *Engine) nextBlock() (Time, bool) {
	switch {
	case e.fine[(e.cb+1)&1].sum != 0:
		return e.cb + 1, true
	case e.coarse.sum != 0:
		from := e.cb + 2
		return from + Time((e.coarse.first(uint(from)&wheelMask)-uint(from))&wheelMask), true
	}
	return 0, false
}

// enter makes nb, a later block than cb that no queued entry precedes, the
// current block, and cascades the coarse entries of nb and nb+1 — those
// not fine already — into the fine level, in FIFO order; entries of later
// turns stay.
func (e *Engine) enter(nb Time) {
	old := e.cb
	e.cb = nb
	for b := max(nb, old+2); b <= nb+1; b++ {
		s := uint(b) & wheelMask
		sl := &e.coarse.slots[s]
		for i := sl.head; i != 0; {
			n := &e.wnodes[i-1]
			next := n.next
			if n.at>>wheelBits == b {
				e.cut(sl, i)
				e.place(i)
			}
			i = next
		}
		if sl.head == 0 {
			e.coarse.clear(s)
		}
	}
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
		if nb := deadline >> wheelBits; nb > e.cb {
			e.enter(nb)
		}
	}
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.Now() + d) }

// Pending reports the number of queued events plus armed timers. A stopped
// or re-armed Timer leaves nothing behind, so the count is exact.
func (e *Engine) Pending() int { return e.wn }

// Drain discards every queued event, disarms every armed timer and returns
// how many entries that was. Use it at shutdown to account for work the
// simulation never executed; after Drain the queue is empty, Pending
// reports zero, and the disarmed timers can be armed again.
func (e *Engine) Drain() int {
	n := e.wn
	for i := range e.wnodes {
		if t, ok := e.wnodes[i].a.(*wheelTimer); ok {
			t.idx = 0
		}
	}
	clear(e.wnodes)
	e.wnodes = e.wnodes[:0]
	e.fine, e.coarse = [2]level{}, level{}
	e.wfree, e.wn = 0, 0
	return n
}

// NextEventTime returns the timestamp of the earliest queued event or timer
// firing and whether one exists. It scans the slab: a diagnostic, not a
// step of a simulation loop.
func (e *Engine) NextEventTime() (Time, bool) {
	at := Time(math.MaxInt64)
	for i := range e.wnodes {
		if n := &e.wnodes[i]; n.fn2 != nil {
			at = min(at, n.at)
		}
	}
	return at, e.wn > 0
}
