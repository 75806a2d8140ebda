package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"onepipe/internal/race"
)

// The differential test drives one seeded script of At/After2, Timer
// Reset/Stop, Ticker start/stop and RunUntil against the engine and against
// a reference model, and requires the identical sequence of live firings
// and the identical live count after every step. Its delays straddle the
// block edge, land on block starts, reach more than a turn of the coarse
// level ahead and aim at the deadlines of far events scheduled earlier, so
// entries filed at the fine level and entries cascaded from the coarse
// level, this turn's or a later one's, keep meeting at equal timestamps.
//
// The reference model is the timer implementation the engine had before
// timers were queue entries: one queue, and a Timer that bumps an epoch and
// abandons its old event as a tombstone. The queue is a plain sorted (at,
// seq) list.

type simAPI interface {
	Now() Time
	// After schedules a one-shot event; two picks the After2 entry point
	// where the implementation has one.
	After(two bool, d Time, fn func())
	NewTimer(fn func()) timerAPI
	NewTicker(interval, phase Time, fn func()) stopper
	RunUntil(t Time)
	Pending() int
	// Executed is how many queue entries the implementation has run.
	Executed() uint64
}

type timerAPI interface {
	Reset(d Time)
	Stop()
	Armed() bool
}

type stopper interface{ Stop() }

// --- reference model ---

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refEngine struct {
	now      Time
	seq      uint64
	q        []refEvent // sorted by (at, seq)
	dead     int
	executed uint64
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) at(t Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	ev := refEvent{at: t, seq: r.seq, fn: fn}
	i := sort.Search(len(r.q), func(i int) bool {
		return r.q[i].at > ev.at || (r.q[i].at == ev.at && r.q[i].seq > ev.seq)
	})
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refEngine) After(_ bool, d Time, fn func()) { r.at(r.now+d, fn) }

func (r *refEngine) RunUntil(deadline Time) {
	for len(r.q) > 0 && r.q[0].at <= deadline {
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		r.executed++
		ev.fn()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refEngine) Pending() int     { return len(r.q) - r.dead }
func (r *refEngine) Executed() uint64 { return r.executed }

type refTimer struct {
	eng   *refEngine
	fn    func()
	epoch uint64
	armed bool
}

func (r *refEngine) NewTimer(fn func()) timerAPI { return &refTimer{eng: r, fn: fn} }

func (t *refTimer) Reset(d Time) {
	if t.armed {
		t.eng.dead++
	}
	t.epoch++
	t.armed = true
	epoch := t.epoch
	t.eng.at(t.eng.now+d, func() {
		if t.epoch != epoch {
			t.eng.dead--
			return
		}
		t.armed = false
		t.fn()
	})
}

func (t *refTimer) Stop() {
	if t.armed {
		t.eng.dead++
	}
	t.epoch++
	t.armed = false
}

func (t *refTimer) Armed() bool { return t.armed }

type refTicker struct {
	timer    *refTimer
	interval Time
	stopped  bool
}

func (r *refEngine) NewTicker(interval, phase Time, fn func()) stopper {
	tk := &refTicker{interval: interval}
	tk.timer = &refTimer{eng: r, fn: func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			tk.timer.Reset(tk.interval)
		}
	}}
	first := interval
	if phase > 0 {
		next := ((r.now-phase)/interval+1)*interval + phase
		if next <= r.now {
			next += interval
		}
		first = next - r.now
	}
	tk.timer.Reset(first)
	return tk
}

func (tk *refTicker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}

// --- the engine under test ---

type engAPI struct{ *Engine }

func (a engAPI) After(two bool, d Time, fn func()) {
	if two {
		a.After2(d, func(f, _ any) { f.(func())() }, fn, nil)
	} else {
		a.Engine.After(d, fn)
	}
}

func (a engAPI) NewTimer(fn func()) timerAPI { return NewTimer(a.Engine, fn) }

func (a engAPI) NewTicker(interval, phase Time, fn func()) stopper {
	return NewTicker(a.Engine, interval, phase, fn)
}

func (a engAPI) Executed() uint64 { return a.Engine.Executed }

// --- the script ---

// draws is the script's source of decisions: a seeded rng, or the bytes of
// a fuzz input.
type draws interface{ Intn(n int) int }

// byteDraws answers each draw from the next byte of a fuzz input. A spent
// input answers n-1, which everywhere in the script means "do nothing
// more", so the run winds down.
type byteDraws struct{ data []byte }

func (d *byteDraws) Intn(n int) int {
	if len(d.data) == 0 {
		return n - 1
	}
	v := int(d.data[0]) % n
	d.data = d.data[1:]
	return v
}

// recDraws records another source's answers as bytes (every bound the
// script draws under is at most 256), which replay through byteDraws.
type recDraws struct {
	src draws
	out []byte
}

func (d *recDraws) Intn(n int) int {
	v := d.src.Intn(n)
	d.out = append(d.out, byte(v))
	return v
}

// How a firing was scheduled: a one-shot event less than wheelSize ahead,
// one at least that far (filed at the coarse level or past it), or a timer.
const (
	fromNear = 1 << iota
	fromFar
	fromTimer
	fromAll = fromNear | fromFar | fromTimer
)

// runTimerScript plays steps drawn operations and returns one line per live
// firing and per top-level step. Every decision, including the ones
// handlers make while firing, is drawn from rng: two implementations that
// fire in the same order draw the same script. ties counts the instants at
// which a near event, a far event and a timer all fired.
//
// One block is wheelSize ns and a turn of the coarse level wheelSize
// blocks; the script uses the engine's constants for both.
func runTimerScript(api simAPI, rng draws, steps int) (log []string, fired, ties int) {
	// Delays cluster on a few values so many deadlines are equal, and include
	// zero and negative ones (clamped to now), a block's length, whole
	// blocks plus a little (the slot of a live near event), 1 ms, block
	// starts, deadlines a turn ahead, and the instant of a far
	// event scheduled a while ago — by now usually less than a block away,
	// so near events and timers meet it there.
	var farAt []Time // deadlines of the far one-shot events, oldest first
	delay := func() Time {
		switch rng.Intn(8) {
		case 7:
			now := api.Now()
			switch rng.Intn(4) {
			case 0: // the start of one of the next few blocks
				return (now>>wheelBits+Time(1+rng.Intn(4)))<<wheelBits - now
			case 1: // a turn of the coarse level ahead
				return wheelSize*wheelSize + Time(rng.Intn(3))*wheelSize + Time(rng.Intn(5))
			}
		case 0:
			return Time(rng.Intn(7)) - 3
		case 1, 2:
			return Time(10 * (1 + rng.Intn(3)))
		case 3:
			return wheelSize + Time(rng.Intn(3)) - 1
		case 4:
			if rng.Intn(8) == 0 {
				return Millisecond
			}
			return Time(1+rng.Intn(3))*wheelSize + Time(rng.Intn(200))
		case 5, 6:
			if n := len(farAt); n > 0 {
				return farAt[n-1-rng.Intn(min(n, 8))] - api.Now()
			}
		}
		return Time(rng.Intn(200))
	}
	kinds := map[Time]int{}
	fire := func(kind int, what string, id int) {
		fired++
		now := api.Now()
		if kinds[now] != fromAll {
			if kinds[now] |= kind; kinds[now] == fromAll {
				ties++
			}
		}
		log = append(log, fmt.Sprintf("%s %d @%d", what, id, now))
	}
	const nTimers = 24
	timers := make([]timerAPI, nTimers)
	// due is each timer's deadline as of its last arming, so the script can
	// move a timer across the wheel's horizon or back into its own slot.
	due := make([]Time, nTimers)
	arm := func(i int, d Time) {
		due[i] = max(api.Now()+d, api.Now())
		timers[i].Reset(d)
	}
	for i := range timers {
		i := i
		timers[i] = api.NewTimer(func() {
			fire(fromTimer, "timer", i)
			// A firing timer sometimes re-arms itself or meddles with a
			// neighbor, the way an RTO handler does.
			switch rng.Intn(5) {
			case 0:
				arm(i, delay())
			case 1:
				arm(rng.Intn(nTimers), delay())
			case 2:
				timers[rng.Intn(nTimers)].Stop()
			}
		})
	}
	oneShots := 0
	// event schedules a one-shot d ahead whose firing runs then().
	event := func(d Time, then func()) {
		id := oneShots
		oneShots++
		kind := fromNear
		if d >= wheelSize {
			kind = fromFar
			farAt = append(farAt, api.Now()+d)
		}
		api.After(rng.Intn(2) == 0, d, func() {
			fire(kind, "event", id)
			then()
		})
	}
	var tickers []stopper
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(12); {
		case op < 2:
			event(delay(), func() {
				if rng.Intn(3) == 0 {
					arm(rng.Intn(nTimers), delay())
				}
			})
		case op < 6:
			arm(rng.Intn(nTimers), delay())
		case op < 8:
			timers[rng.Intn(nTimers)].Stop()
		case op == 10:
			// Re-arm an armed timer across the wheel's horizon, whichever
			// side it is on, or for its own deadline: the same slot, to its
			// tail.
			i := rng.Intn(nTimers)
			if !timers[i].Armed() {
				arm(i, delay())
				break
			}
			left := due[i] - api.Now()
			switch {
			case rng.Intn(3) == 0:
				arm(i, left)
			case left < wheelSize:
				arm(i, wheelSize+Time(rng.Intn(3*wheelSize)))
			default:
				arm(i, Time(rng.Intn(wheelSize)))
			}
		case op == 11:
			// One slot's FIFO several deep: an event, then k timers armed
			// for the same instant. One of them — the first, a middle one
			// or the last — is stopped at once, and when the event fires
			// it stops or re-arms the first timer, which its own popping
			// has usually just made the slot's head.
			d := Time(rng.Intn(200))
			k := 3 + rng.Intn(3)
			first := rng.Intn(nTimers)
			ids := make([]int, k)
			for j := range ids {
				ids[j] = (first + j) % nTimers
			}
			event(d, func() {
				if rng.Intn(2) == 0 {
					timers[ids[0]].Stop()
				} else {
					arm(ids[0], delay())
				}
			})
			for _, i := range ids {
				arm(i, d)
			}
			timers[ids[[]int{0, k / 2, k - 1}[rng.Intn(3)]]].Stop()
		case op == 8:
			if len(tickers) < 6 && rng.Intn(2) == 0 {
				id := len(tickers)
				interval := Time(5 + rng.Intn(40))
				phase := Time(rng.Intn(2) * rng.Intn(int(interval)))
				tickers = append(tickers, api.NewTicker(interval, phase, func() {
					fire(fromTimer, "tick", id)
					if rng.Intn(20) == 0 {
						tickers[id].Stop() // from inside its own callback
					}
				}))
			} else if len(tickers) > 0 {
				tickers[rng.Intn(len(tickers))].Stop()
			}
		default:
			d := Time(rng.Intn(60))
			switch rng.Intn(32) {
			case 0, 1: // a jump longer than a block
				d += Time(1+rng.Intn(2)) * wheelSize
			case 2: // over several coarse blocks
				d += Time(3+rng.Intn(40)) * wheelSize
			case 3: // a turn ahead
				d += wheelSize * wheelSize
			}
			api.RunUntil(api.Now() + d)
		}
		armed := 0
		for _, tm := range timers {
			if tm.Armed() {
				armed++
			}
		}
		log = append(log, fmt.Sprintf("step %d: now %d pending %d armed %d", step, api.Now(), api.Pending(), armed))
	}
	for _, tk := range tickers {
		tk.Stop()
	}
	api.RunUntil(api.Now() + wheelSize*wheelSize + 2*Millisecond)
	log = append(log, fmt.Sprintf("end: now %d pending %d", api.Now(), api.Pending()))
	return log, fired, ties
}

// diffScript plays one script against the reference model and against the
// engine and requires identical logs. mk returns a fresh copy of the
// decision source per run.
func diffScript(t *testing.T, label string, mk func() draws, steps int) (modelFirings uint64, ties int) {
	t.Helper()
	ref := &refEngine{}
	want, _, ties := runTimerScript(ref, mk(), steps)
	api := engAPI{NewEngine(1)}
	got, fired, _ := runTimerScript(api, mk(), steps)
	if len(got) != len(want) {
		t.Fatalf("%s: %d log lines, model has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %q, model has %q", label, i, got[i], want[i])
		}
	}
	// Nothing but live firings ran: a cancelled arm costs no event.
	if ex := api.Executed(); ex != uint64(fired) {
		t.Errorf("%s: executed %d queue entries for %d live firings", label, ex, fired)
	}
	return ref.executed, ties
}

func TestTimerHeapMatchesTombstoneModel(t *testing.T) {
	steps := 4000
	if race.Enabled {
		steps = 2500
	}
	for seed := int64(1); seed <= 8; seed++ {
		label := fmt.Sprintf("seed %d", seed)
		firings, ties := diffScript(t, label, func() draws { return rand.New(rand.NewSource(seed)) }, steps)
		if firings <= uint64(steps)/8 {
			t.Fatalf("%s: script too idle (%d model events)", label, firings)
		}
		if ties == 0 {
			t.Fatalf("%s: near events, far events and timers never met at one instant", label)
		}
	}
}

// FuzzEngineOrder plays the differential script with every decision read
// from the fuzz input. The seed corpus is the start of the seeded scripts
// above, recorded draw by draw.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rec := &recDraws{src: rand.New(rand.NewSource(seed))}
		runTimerScript(&refEngine{}, rec, 150)
		f.Add(rec.out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		diffScript(t, "fuzz", func() draws { return &byteDraws{data: data} }, len(data)/2)
	})
}

// TestDrainDisarmsTimers: Drain counts armed timers as queued work, at the
// fine and the coarse level, leaves them disarmed, and they can be armed
// again afterwards at either level.
func TestDrainDisarmsTimers(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tms := make([]*Timer, 6)
	for i := range tms {
		tms[i] = NewTimer(e, func() { fired++ })
		d := Time(100 + i) // near: the fine level
		if i%2 == 1 {
			d += 2 * wheelSize // far: the coarse level
		}
		tms[i].Reset(d)
	}
	tk := NewTicker(e, 10, 0, func() { fired++ })
	e.At(50, func() { fired++ })
	if q := e.queued(); q != [3]int{5, 3, 0} {
		t.Fatalf("fine/coarse/later turn = %v, want 5/3/0 (3 near timers, the ticker, the event; 3 far timers)", q)
	}
	if got := e.Drain(); got != 8 {
		t.Fatalf("Drain = %d, want 8 (6 timers, 1 ticker, 1 event)", got)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Drain = %d, want 0", got)
	}
	for i, tm := range tms {
		if tm.Armed() {
			t.Fatalf("timer %d still armed after Drain", i)
		}
	}
	tk.Stop() // stopping a drained ticker is harmless
	tms[3].Stop()
	tms[0].Stop()
	tms[1].Reset(5)
	tms[4].Reset(2)
	tms[2].Reset(3 * wheelSize)
	if q := e.queued(); q != [3]int{2, 1, 0} {
		t.Fatalf("after re-arming three: fine/coarse/later turn = %v, want 2/1/0", q)
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d after Drain and re-arm, want 3", fired)
	}
}

// TestTimerDeadline: the deadline is the queue entry's key, so it follows
// re-arms, at the fine level, at the coarse level and across the block edge, and
// survives other timers moving around it.
func TestTimerDeadline(t *testing.T) {
	e := NewEngine(1)
	a, b := NewTimer(e, func() {}), NewTimer(e, func() {})
	a.Reset(50)
	b.Reset(20)
	if a.Deadline() != 50 || b.Deadline() != 20 {
		t.Fatalf("deadlines = %v, %v; want 50, 20", a.Deadline(), b.Deadline())
	}
	a.Reset(5)
	if a.Deadline() != 5 || b.Deadline() != 20 {
		t.Fatalf("after re-arm: deadlines = %v, %v; want 5, 20", a.Deadline(), b.Deadline())
	}
	a.Reset(wheelSize)
	b.Reset(3 * wheelSize)
	if a.Deadline() != wheelSize || b.Deadline() != 3*wheelSize {
		t.Fatalf("armed far: deadlines = %v, %v; want %d, %d", a.Deadline(), b.Deadline(), wheelSize, 3*wheelSize)
	}
	b.Reset(7)
	if a.Deadline() != wheelSize || b.Deadline() != 7 {
		t.Fatalf("b back in the wheel: deadlines = %v, %v; want %d, 7", a.Deadline(), b.Deadline(), wheelSize)
	}
}

// TestTimerAllocs pins the point of timers as queue entries: once the slab
// has grown, arming, cancelling, firing and ticking allocate nothing.
// The tombstone timer allocated a closure per arm.
func TestTimerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	others := make([]*Timer, 256)
	for i := range others {
		others[i] = NewTimer(e, func() {})
		others[i].Reset(Time(1_000_000 + i))
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(3)
		e.Step()
	}); avg != 0 {
		t.Errorf("Reset+fire: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(3)
		tm.Reset(7) // re-key in place
		tm.Stop()
	}); avg != 0 {
		t.Errorf("Reset+Stop: %v allocs/op, want 0", avg)
	}
	if fires != 1001 { // AllocsPerRun adds one warm-up run
		t.Fatalf("timer fired %d times, want 1001", fires)
	}
	ticks := 0
	tk := NewTicker(e, 5, 0, func() { ticks++ })
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Errorf("Ticker tick: %v allocs/op, want 0", avg)
	}
	tk.Stop()
	if ticks != 1001 {
		t.Fatalf("ticker ticked %d times, want 1001", ticks)
	}
	if got := e.Pending(); got != len(others) {
		t.Fatalf("Pending = %d, want the %d long timers", got, len(others))
	}
}
