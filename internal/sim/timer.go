package sim

// Handler is what a Timer runs when it fires. Implementations are normally
// pointer-shaped adapter types over the struct that embeds the timer
// (`type connRTO conn`, armed as `(*connRTO)(c)`), so storing one in a Timer
// boxes nothing and arming allocates nothing.
type Handler interface {
	Fire()
}

// funcHandler adapts a plain func to Handler; func values are
// pointer-shaped, so the conversion does not allocate.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Timer is a cancelable, re-armable one-shot timer on the simulation clock.
// It is the building block for retransmission timeouts, beacon intervals,
// and dead-link detection in the network model.
//
// An armed Timer is one queue entry and nothing else: a node of the
// engine's timing wheel, at whichever level its deadline puts it. Stop and
// Reset unlink or move that node in O(1), so a cancelled firing costs
// nothing later and keeps nothing reachable. The zero Timer is disarmed;
// give it an engine and a handler with Init before the first Reset. Timers
// are meant to be embedded by value — the struct is 32 bytes, the deadline
// lives in the node — and whoever drops a struct with an embedded timer must
// Stop it first, or the engine keeps the struct alive until it fires.
type Timer struct {
	eng *Engine
	h   Handler
	idx uint32 // the node's slab index plus one; 0 = disarmed
}

// wheelTimer is the type a Timer is boxed as in its node's first argument,
// so Drain can tell its nodes from events'.
type wheelTimer Timer

// fireWheelTimer is the callback of a Timer's node: the engine has already
// freed the node, so the timer is disarmed and then fired, and the handler
// may re-arm it.
func fireWheelTimer(a, _ any) {
	t := (*Timer)(a.(*wheelTimer))
	t.idx = 0
	t.h.Fire()
}

// NewTimer creates a timer that invokes fn when it fires. The timer starts
// disarmed.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, h: funcHandler(fn)}
}

// Init binds a disarmed (typically embedded, zero) timer to its engine and
// handler.
func (t *Timer) Init(eng *Engine, h Handler) {
	t.eng, t.h = eng, h
}

// Handler returns the handler the timer was initialised with.
func (t *Timer) Handler() Handler { return t.h }

// Reset (re)arms the timer to fire d nanoseconds from now, replacing any
// previously scheduled firing. The firing takes its place in the engine's
// (time, seq) order exactly as an event scheduled by After(d) at this
// moment would: same clamp to the present, same filing by deadline. A
// re-armed timer keeps its node, which moves to the tail of its new FIFO —
// possibly its old one.
func (t *Timer) Reset(d Time) {
	e := t.eng
	at := e.now + d
	if at < e.now {
		at = e.now
	}
	i := t.idx
	if i != 0 {
		e.unlink(i)
	} else {
		i = e.newNode()
		t.idx = i
		n := &e.wnodes[i-1]
		n.fn2, n.a = fireWheelTimer, (*wheelTimer)(t)
		e.wn++
	}
	e.wnodes[i-1].at = at
	e.place(i)
}

// Stop disarms the timer. It is safe to call on a disarmed timer.
func (t *Timer) Stop() {
	if i := t.idx; i != 0 {
		e := t.eng
		e.unlink(i)
		e.free(i)
		e.wn--
		t.idx = 0
	}
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.idx != 0 }

// Deadline returns the virtual time at which the timer will fire. Only
// meaningful while Armed.
func (t *Timer) Deadline() Time {
	if t.idx == 0 {
		return 0
	}
	return t.eng.wnodes[t.idx-1].at
}

// Ticker invokes fn every interval until stopped. Used for periodic beacon
// generation and controller heartbeats.
type Ticker struct {
	timer    Timer
	fn       func()
	interval Time
	stopped  bool
}

// tickerFire is the Ticker's timer handler: run the callback, re-arm.
type tickerFire Ticker

func (f *tickerFire) Fire() {
	tk := (*Ticker)(f)
	tk.fn()
	if !tk.stopped {
		tk.timer.Reset(tk.interval)
	}
}

// NewTicker starts a ticker with the given interval. The first tick fires
// one full interval from now. If phase is non-zero the first tick is aligned
// so ticks land at times ≡ phase (mod interval); the paper synchronizes
// beacon emission times across hosts this way (§4.2).
func NewTicker(eng *Engine, interval, phase Time, fn func()) *Ticker {
	tk := &Ticker{fn: fn, interval: interval}
	tk.timer.Init(eng, (*tickerFire)(tk))
	first := interval
	if phase > 0 {
		now := eng.Now()
		next := ((now-phase)/interval+1)*interval + phase
		if next <= now {
			next += interval
		}
		first = next - now
	}
	tk.timer.Reset(first)
	return tk
}

// Stop halts the ticker; no further ticks fire.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}
