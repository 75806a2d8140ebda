package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// White-box tests of the two-level timing wheel: which level an entry
// lands in, and that cascading a coarse block — entries of later turns
// staying behind — keeps the (time, seq) order where entries filed at
// different levels meet.

// count walks a FIFO.
func (e *Engine) count(sl wslot) int {
	n := 0
	for i := sl.head; i != 0; i = e.wnodes[i-1].next {
		n++
	}
	return n
}

// queued reports how many entries sit in the fine level, in the coarse
// level for this turn of it (blocks up to cb+wheelSize+1), and in the
// coarse level for a later turn.
func (e *Engine) queued() [3]int {
	var q [3]int
	for s := range e.coarse.slots {
		q[0] += e.count(e.fine[0].slots[s]) + e.count(e.fine[1].slots[s])
		for i := e.coarse.slots[s].head; i != 0; i = e.wnodes[i-1].next {
			if e.wnodes[i-1].at>>wheelBits > e.cb+wheelSize+1 {
				q[2]++
			} else {
				q[1]++
			}
		}
	}
	return q
}

// wheelEmpty reports whether every level's occupancy summary is clear.
func (e *Engine) wheelEmpty() bool {
	return e.fine[0].sum == 0 && e.fine[1].sum == 0 && e.coarse.sum == 0
}

// TestEventFootprint pins the sizes the wheel is built around: a wheel node
// is one cache line with both FIFO links, and the engine carries the three
// 32 KiB slot arrays — two fine blocks and the coarse level — their bitmaps
// and little else.
func TestEventFootprint(t *testing.T) {
	if got := unsafe.Sizeof(wnode{}); got != 64 {
		t.Errorf("wnode is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Engine{}); got > 100<<10 {
		t.Errorf("Engine is %d bytes, want at most 100 KiB", got)
	}
}

// TestWheelHorizon: an entry goes to the fine level exactly when its block
// is now's or the next, else to the coarse level — for this turn up to
// wheelSize+1 blocks ahead, for a later one beyond — wherever now is.
func TestWheelHorizon(t *testing.T) {
	for _, start := range []Time{0, 1, wheelSize - 1, wheelSize, 5*wheelSize + 4090} {
		e := NewEngine(1)
		e.RunUntil(start)
		var want [3]int
		horizon := (start>>wheelBits + wheelSize + 2) << wheelBits // first instant of the next turn
		for _, d := range []Time{0, wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize - start&wheelMask - 1,
			2*wheelSize - start&wheelMask, -7, horizon - start - 1, horizon - start, 1 << 40} {
			at := max(start+d, start)
			switch b := at >> wheelBits; {
			case b <= start>>wheelBits+1:
				want[0]++
			case at < horizon:
				want[1]++
			default:
				want[2]++
			}
			e.After(d, func() {})
			if got := e.queued(); got != want {
				t.Fatalf("start %d, after After(%d): fine/coarse/later turn = %v, want %v", start, d, got, want)
			}
		}
		if want[0] < 4 || want[1] < 2 || want[2] < 2 {
			t.Fatalf("start %d: the cases reach the levels only %v times", start, want)
		}
	}
}

// TestSameInstantAcrossQueues: six entries due at one instant — an event
// and a Timer armed while the instant is more than a turn of the coarse
// level ahead, a pair armed while it is 20 blocks ahead (coarse level) and
// a pair armed 10 ns before it (fine level) — run in the order they were
// armed, after a jump that brings the first pair into this turn and one
// that cascades four into the fine level. The instant is a block's first, a
// middle and its last nanosecond; every order within each pair is covered,
// and each timer is armed directly or first armed at another level and
// moved there by Reset.
func TestSameInstantAcrossQueues(t *testing.T) {
	const far = (wheelSize + 5) * wheelSize // a later turn, seen from 0
	for _, at := range []Time{far, far + 77, far + wheelMask} {
		for c := 0; c < 16; c++ {
			label := fmt.Sprintf("at %d, case %04b", at, c)
			e := NewEngine(1)
			var got, want []string
			tms := map[string]*Timer{}
			arm := func(name string, timerFirst, moved bool, ahead Time) {
				tm := NewTimer(e, func() { got = append(got, name+" timer") })
				tms[name] = tm
				if moved {
					tm.Reset(ahead - 3*wheelSize) // another level, then here
				}
				ev := func() { e.At(at, func() { got = append(got, name+" event") }) }
				if timerFirst {
					tm.Reset(at - e.Now())
					ev()
					want = append(want, name+" timer", name+" event")
				} else {
					ev()
					tm.Reset(at - e.Now())
					want = append(want, name+" event", name+" timer")
				}
			}
			arm("later turn", c&1 != 0, c&8 != 0, at)
			if q := e.queued(); q != [3]int{0, 0, 2} {
				t.Fatalf("%s: fine/coarse/later turn = %v, want 0/0/2", label, q)
			}
			e.RunUntil(at - 20*wheelSize)
			arm("coarse", c&2 != 0, c&8 != 0, 20*wheelSize)
			if q := e.queued(); q != [3]int{0, 4, 0} {
				t.Fatalf("%s: fine/coarse/later turn = %v, want 0/4/0", label, q)
			}
			e.RunUntil(at - 10)
			arm("fine", c&4 != 0, c&8 != 0, 10)
			if q := e.queued(); q != [3]int{6, 0, 0} {
				t.Fatalf("%s: fine/coarse/later turn = %v, want 6/0/0", label, q)
			}
			for name, tm := range tms {
				if tm.Deadline() != at {
					t.Fatalf("%s: %s timer deadline %d, want %d", label, name, tm.Deadline(), at)
				}
			}
			e.Run()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: ran %v, want %v", label, got, want)
			}
			if e.Now() != at || e.Pending() != 0 {
				t.Fatalf("%s: Now = %d (want %d), pending %d", label, e.Now(), at, e.Pending())
			}
		}
	}
}

// TestCoarseTimerStopReset: a coarse-level timer stopped, re-armed within
// the coarse level, moved to the fine level and back, and re-armed a turn
// ahead and back, keeps the other entries of its block in order and fires
// once at its last deadline.
func TestCoarseTimerStopReset(t *testing.T) {
	e := NewEngine(1)
	var got []string
	const at = 9*wheelSize + 100
	mk := func(name string) *Timer {
		return NewTimer(e, func() { got = append(got, fmt.Sprintf("%s@%d", name, int64(e.Now()))) })
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	a.Reset(at)
	b.Reset(at)
	c.Reset(at)
	a.Stop()                           // head of a coarse FIFO
	c.Reset(at + 5)                    // same coarse FIFO, new tail
	b.Reset(50)                        // to the fine level
	b.Reset(at)                        // and back, behind c
	a.Reset(wheelSize * wheelSize * 2) // a later turn
	a.Reset(at)                        // and back, last
	if q := e.queued(); q != [3]int{0, 3, 0} {
		t.Fatalf("fine/coarse/later turn = %v, want 0/3/0", q)
	}
	e.Run()
	want := fmt.Sprintf("[b@%d a@%d c@%d]", at, at, at+5)
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestWheelTimerUnlink: Stop of the head, a middle node and the tail of
// one slot's FIFO, a Stop of the head a popped entry left behind, and a
// Reset to the same slot (which moves the timer to the tail) keep the rest
// of the slot in arming order and the free list sound.
func TestWheelTimerUnlink(t *testing.T) {
	for _, c := range []struct {
		name string
		act  func(tms []*Timer)
		want string
	}{
		{"stop head", func(tms []*Timer) { tms[0].Stop() }, "[1 2 3 4]"},
		{"stop middle", func(tms []*Timer) { tms[2].Stop() }, "[0 1 3 4]"},
		{"stop tail", func(tms []*Timer) { tms[4].Stop() }, "[0 1 2 3]"},
		{"stop all", func(tms []*Timer) {
			for _, i := range []int{2, 0, 4, 1, 3} {
				tms[i].Stop()
			}
		}, "[]"},
		{"reset same slot", func(tms []*Timer) { tms[1].Reset(tms[1].Deadline() - tms[1].eng.Now()) }, "[0 2 3 4 1]"},
		{"reset head to tail", func(tms []*Timer) { tms[0].Reset(50) }, "[1 2 3 4 0]"},
		{"stop head after a pop", func(tms []*Timer) {
			e := tms[0].eng
			e.Step() // pops 0; 1 becomes the head
			tms[1].Stop()
		}, "[0 2 3 4]"},
	} {
		e := NewEngine(1)
		var got []int
		tms := make([]*Timer, 5)
		for i := range tms {
			i := i
			tms[i] = NewTimer(e, func() { got = append(got, i) })
			tms[i].Reset(50)
		}
		c.act(tms)
		e.Run()
		if g := fmt.Sprint(got); g != c.want {
			t.Fatalf("%s: fired %s, want %s", c.name, g, c.want)
		}
		if e.Pending() != 0 || !e.wheelEmpty() {
			t.Fatalf("%s: wheel not empty: pending %d", c.name, e.Pending())
		}
		// Every node is back on the free list exactly once.
		free := 0
		for i := e.wfree; i != 0 && free <= len(e.wnodes); i = e.wnodes[i-1].next {
			free++
		}
		if free != len(e.wnodes) {
			t.Fatalf("%s: %d nodes on the free list, slab has %d", c.name, free, len(e.wnodes))
		}
	}
}

// TestWheelWrapAround: with now in the bitmap's last word, the scan must
// take the rest of that word first, then the next block's fine level, from
// its low words up to the bits that lie below now's slot.
func TestWheelWrapAround(t *testing.T) {
	e := NewEngine(1)
	const start = 7*wheelSize + 4090 // slot 4090: word 63, bit 58
	e.RunUntil(start)
	var got []Time
	// Scheduled out of order; the slots are 4089 (below now in now's own
	// word), 94, 4, 4093 and 4090.
	for _, d := range []Time{wheelSize - 1, 100, 10, 3, 0} {
		e.After(d, func() { got = append(got, e.Now()-start) })
	}
	for e.Step() {
		if want := 5 - len(got); e.Pending() != want {
			t.Fatalf("Pending = %d after %d steps, want %d", e.Pending(), len(got), want)
		}
	}
	if want := []Time{0, 3, 10, 100, wheelSize - 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ran at offsets %v, want %v", got, want)
	}
	if !e.wheelEmpty() || e.wn != 0 {
		t.Fatalf("wheel not empty after the run: count %d", e.wn)
	}
}

// TestWheelRescheduleIntoOwnSlot: an event executing from slot s schedules
// for the same instant (slot s again, behind what is already queued there)
// and for a whole block later (slot s of the other fine level).
func TestWheelRescheduleIntoOwnSlot(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(s string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	}
	e.At(50, func() {
		log("first")()
		e.At(50, log("again"))
		e.After(wheelSize, log("turn"))
		e.At(20, log("past")) // clamped to 50, behind "again"
	})
	e.At(50, log("second"))
	e.Run()
	want := fmt.Sprintf("[first@50 second@50 again@50 past@50 turn@%d]", 50+wheelSize)
	if fmt.Sprint(got) != want {
		t.Fatalf("ran %v, want %s", got, want)
	}
}

// TestWheelDrainAndReuse: Drain empties and re-zeroes the wheel, and the
// engine orders new work correctly afterwards.
func TestWheelDrainAndReuse(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(1000)
	for i := 0; i < 300; i++ {
		e.After(Time(i*37%(2*wheelSize)), func() { t.Error("drained event ran") })
	}
	tm := NewTimer(e, func() { t.Error("drained timer fired") })
	tm.Reset(40)
	if got := e.Drain(); got != 301 {
		t.Fatalf("Drain = %d, want 301", got)
	}
	if e.Pending() != 0 || e.wn != 0 || !e.wheelEmpty() || e.wfree != 0 || len(e.wnodes) != 0 ||
		e.fine != [2]level{} || e.coarse != (level{}) {
		t.Fatal("Drain left wheel state behind")
	}
	var got []Time
	for _, d := range []Time{wheelSize + 5, 9, 9, 0, wheelSize - 1} {
		e.After(d, func() { got = append(got, e.Now()-1000) })
	}
	e.Run()
	if want := []Time{0, 9, 9, wheelSize - 1, wheelSize + 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after Drain ran at offsets %v, want %v", got, want)
	}
}

// TestWheelNodesReleasePayload: a node on the free list holds no callback
// and no arguments, so the slab keeps nothing an executed event referenced
// reachable; and the slab is recycled, not grown, in steady state.
func TestWheelNodesReleasePayload(t *testing.T) {
	e := NewEngine(1)
	x := new(int)
	for i := 0; i < 100; i++ {
		e.After2(Time(i%13), func(a, b any) {}, x, x)
	}
	for e.Pending() > 40 {
		e.Step()
	}
	grown := len(e.wnodes)
	for i := 0; i < 1000; i++ {
		e.After2(Time(i%29), func(a, b any) {}, x, x)
		e.Step()
	}
	if len(e.wnodes) != grown {
		t.Fatalf("slab grew from %d to %d nodes at a constant 40 pending", grown, len(e.wnodes))
	}
	free := 0
	for i := e.wfree; i != 0; i = e.wnodes[i-1].next {
		if n := &e.wnodes[i-1]; n.fn2 != nil || n.a != nil || n.b != nil {
			t.Fatalf("free node %d still holds a payload", i-1)
		}
		free++
	}
	if free != grown-40 {
		t.Fatalf("%d nodes on the free list, want %d", free, grown-40)
	}
}
