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
// engine's timing wheel when it is due less than wheelSize ahead, else an
// entry of the timer heap. Stop and Reset unlink, move or re-key that
// entry — O(1) in the wheel, O(log n) in the heap — so a cancelled firing
// costs nothing later and keeps nothing reachable. The zero Timer is
// disarmed; give it an engine and a handler with Init before the first
// Reset. Timers are meant to be embedded by value — the struct is 32 bytes,
// the (at, seq) key lives in the queue entry — and whoever drops a struct
// with an embedded timer must Stop it first, or the engine keeps the struct
// alive until it fires.
type Timer struct {
	eng *Engine
	h   Handler
	// idx locates the entry: its position in eng.timers plus one when
	// positive, minus its wheel node's slab index plus one when negative;
	// 0 = disarmed.
	idx int32
}

// wheelTimer is the type a Timer held in the wheel is boxed as in its
// node's first argument, so Drain can tell its nodes from events'.
type wheelTimer Timer

// fireWheelTimer is the callback of a Timer's wheel node: the engine has
// already freed the node, so the timer is disarmed and then fired, and the
// handler may re-arm it.
func fireWheelTimer(a, _ any) {
	t := (*Timer)(a.(*wheelTimer))
	t.idx = 0
	t.h.Fire()
}

// timerEntry is one armed timer in the heap. The key is inline so a sift
// compares entries without dereferencing two Timers.
type timerEntry struct {
	at  Time
	seq uint64
	t   *Timer
}

func (a *timerEntry) less(b *timerEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
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
// moment would: same clamp to the present, same sequence counter, and the
// same queue choice by distance — the wheel below wheelSize, else the timer
// heap. A re-armed wheel node moves to the tail of its new slot, which may
// be its old one.
func (t *Timer) Reset(d Time) {
	e := t.eng
	now := e.now
	at := now + d
	if at < now {
		at = now
	}
	seq := e.nextSeq()
	if at-now < wheelSize {
		e.armWheel(t, at, seq)
		return
	}
	if t.idx < 0 {
		e.remove(t)
	}
	i := int(t.idx) - 1
	if i < 0 {
		e.timers = append(e.timers, timerEntry{})
		i = len(e.timers) - 1
	}
	e.placeTimer(i, timerEntry{at: at, seq: seq, t: t})
}

// armWheel files t as a node of the wheel slot of at, keeping the node it
// already has there. It is Reset's near half, kept out of line so that the
// heap half stays a short function with a small frame.
func (e *Engine) armWheel(t *Timer, at Time, seq uint64) {
	var i uint32
	if t.idx < 0 {
		i = uint32(-t.idx)
		e.unlink(i)
	} else {
		if t.idx > 0 {
			e.remove(t)
		}
		i = e.newNode()
	}
	e.link(i, at, seq, fireWheelTimer, (*wheelTimer)(t), nil)
	t.idx = -int32(i)
}

// Stop disarms the timer. It is safe to call on a disarmed timer.
func (t *Timer) Stop() {
	if t.idx != 0 {
		t.eng.remove(t)
	}
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.idx != 0 }

// Deadline returns the virtual time at which the timer will fire. Only
// meaningful while Armed.
func (t *Timer) Deadline() Time {
	switch {
	case t.idx < 0:
		return t.eng.wnodes[-t.idx-1].at
	case t.idx > 0:
		return t.eng.timers[t.idx-1].at
	}
	return 0
}

// placeTimer writes ent into the timer heap starting from the hole at slot
// i, sifting it up or down to where its key belongs and keeping every moved
// timer's index current. The held entry is written once, at its final slot.
func (e *Engine) placeTimer(i int, ent timerEntry) {
	h := e.timers
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].less(&ent) {
			break
		}
		h[i] = h[p]
		h[i].t.idx = int32(i + 1)
		i = p
	}
	n := len(h)
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
			if h[j].less(&h[m]) {
				m = j
			}
		}
		if ent.less(&h[m]) {
			break
		}
		h[i] = h[m]
		h[i].t.idx = int32(i + 1)
		i = m
	}
	h[i] = ent
	ent.t.idx = int32(i + 1)
}

// remove takes an armed timer's entry out of its queue — its wheel node,
// freed, or its heap slot — and disarms it. A heap's vacated tail slot is
// zeroed so the backing array does not keep the timer's owner reachable.
func (e *Engine) remove(t *Timer) {
	if t.idx < 0 {
		i := uint32(-t.idx)
		e.unlink(i)
		e.free(i)
		t.idx = 0
		return
	}
	h := e.timers
	i, n := int(t.idx)-1, len(h)-1
	t.idx = 0
	last := h[n]
	h[n] = timerEntry{}
	e.timers = h[:n]
	if i < n {
		e.placeTimer(i, last)
	}
}

// fireTimer pops the earliest timer of the timer heap and runs its handler.
// The timer is disarmed first, so the handler may re-arm it.
func (e *Engine) fireTimer() {
	ent := e.timers[0]
	e.remove(ent.t)
	e.now = ent.at
	e.Executed++
	ent.t.h.Fire()
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
