package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// White-box tests of the timing wheel in front of the far-event heap: which
// queue an entry lands in, and that taking the smallest of the three heads
// keeps the (time, seq) order where the queues meet.

// queued reports how many entries sit in the wheel, the heap and the timer
// heap.
func (e *Engine) queued() [3]int { return [3]int{e.wn, len(e.events), len(e.timers)} }

// TestEventFootprint pins the sizes the wheel is built around: a wheel node
// is one cache line with both FIFO links, and the engine carries the 32 KiB
// slot array, the bitmap and little else.
func TestEventFootprint(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Errorf("event is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(wnode{}); got != 64 {
		t.Errorf("wnode is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Engine{}); got > 40<<10 {
		t.Errorf("Engine is %d bytes, want at most 40 KiB", got)
	}
}

// TestWheelHorizon: an event goes to the wheel exactly when it is due less
// than wheelSize ahead of now, wherever now is.
func TestWheelHorizon(t *testing.T) {
	for _, start := range []Time{0, 1, wheelSize - 1, wheelSize, 5*wheelSize + 4090} {
		e := NewEngine(1)
		e.RunUntil(start)
		for _, c := range []struct {
			d    Time
			want [3]int
		}{
			{0, [3]int{1, 0, 0}},
			{wheelSize - 1, [3]int{2, 0, 0}},
			{wheelSize, [3]int{2, 1, 0}},
			{wheelSize + 1, [3]int{2, 2, 0}},
			{-7, [3]int{3, 2, 0}}, // clamped to now
		} {
			e.After(c.d, func() {})
			if got := e.queued(); got != c.want {
				t.Fatalf("start %d, after After(%d): wheel/heap/timers = %v, want %v", start, c.d, got, c.want)
			}
		}
	}
}

// TestSameInstantAcrossQueues: four heads due at one instant — an event
// scheduled far (heap), a Timer armed far (timer heap), a near event and a
// near Timer (both in the wheel) — run in the order they were armed. Far
// entries are armed while the instant is at least wheelSize away and near
// ones once it is closer, so the far pair always precedes the near pair;
// every order within each pair is covered, with each timer armed directly
// or first armed on the other side of the horizon and moved by Reset.
func TestSameInstantAcrossQueues(t *testing.T) {
	const at = 3*wheelSize + 77
	for c := 0; c < 8; c++ {
		farTimerFirst, nearTimerFirst, moved := c&1 != 0, c&2 != 0, c&4 != 0
		label := fmt.Sprintf("far timer first %v, near timer first %v, moved %v", farTimerFirst, nearTimerFirst, moved)
		e := NewEngine(1)
		var got, want []string
		farTm := NewTimer(e, func() { got = append(got, "far timer") })
		nearTm := NewTimer(e, func() { got = append(got, "near timer") })
		if moved {
			farTm.Reset(5)              // into the wheel, then out
			nearTm.Reset(5 * wheelSize) // into the timer heap, then out
		}
		armFarTimer := func() {
			farTm.Reset(at - e.Now())
			want = append(want, "far timer")
		}
		armFarEvent := func() {
			e.At(at, func() { got = append(got, "far event") })
			want = append(want, "far event")
		}
		armNearTimer := func() {
			nearTm.Reset(at - e.Now())
			want = append(want, "near timer")
		}
		armNearEvent := func() {
			e.At(at, func() { got = append(got, "near event") })
			want = append(want, "near event")
		}
		if farTimerFirst {
			armFarTimer()
			armFarEvent()
		} else {
			armFarEvent()
			armFarTimer()
		}
		e.RunUntil(at - 10)
		if nearTimerFirst {
			armNearTimer()
			armNearEvent()
		} else {
			armNearEvent()
			armNearTimer()
		}
		if q := e.queued(); q != [3]int{2, 1, 1} {
			t.Fatalf("%s: wheel/heap/timers = %v, want 2/1/1", label, q)
		}
		if farTm.Deadline() != at || nearTm.Deadline() != at {
			t.Fatalf("%s: deadlines %d, %d, want %d", label, farTm.Deadline(), nearTm.Deadline(), at)
		}
		e.Run()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: ran %v, want %v", label, got, want)
		}
		if e.Now() != at || farTm.Armed() || nearTm.Armed() {
			t.Fatalf("%s: Now = %d (want %d), armed %v/%v", label, e.Now(), at, farTm.Armed(), nearTm.Armed())
		}
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
		if e.Pending() != 0 || e.wsum != 0 {
			t.Fatalf("%s: wheel not empty: pending %d, summary %#x", c.name, e.Pending(), e.wsum)
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
// take the rest of that word first, then wrap to the low words, and reach
// the bits of the last word that lie below now's last of all.
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
	if e.wsum != 0 || e.wn != 0 {
		t.Fatalf("wheel not empty after the run: summary %#x, count %d", e.wsum, e.wn)
	}
}

// TestWheelRescheduleIntoOwnSlot: an event executing from slot s schedules
// for the same instant (slot s again, behind what is already queued there)
// and for a whole turn later (slot s too, but through the heap).
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
	if e.Pending() != 0 || e.wn != 0 || e.wsum != 0 || e.wfree != 0 || len(e.wnodes) != 0 ||
		e.wheel != [wheelSize]wslot{} || e.wbits != [wheelSize / 64]uint64{} {
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
