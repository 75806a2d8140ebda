package core

import (
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
)

type connKey struct {
	src, dst netsim.ProcID
}

// cls maps a reliability class to its PSN-space index: best-effort and
// reliable traffic use independent sequence spaces so a lost (never
// retransmitted) best-effort packet cannot wedge reliable reassembly.
func cls(reliable bool) int {
	if reliable {
		return 1
	}
	return 0
}

// outPkt is an in-flight packet awaiting its end-to-end ACK. It lives in
// its scattering's pkts slab (40 bytes: the slab is sized by totalPkts and
// one is embedded in every scattering), so sendQ, unacked, parked and fnext
// chains all point into that slab.
type outPkt struct {
	psn      uint32
	msgIdx   int32 // index into the scattering's message list
	frag     int32 // fragment index within the message
	size     int32
	retx     int32
	endOfMsg bool
	scat     *scattering
	// fnext links the members of a multi-message frame behind the head:
	// a frame occupies one window slot, one unacked entry (the head's PSN)
	// and one ACK, and member PSNs are consecutive from the head's. Chains
	// are immutable once emitted; aborted members stay linked (their PSN is
	// part of the frame's span) but are skipped when the wire packet is
	// rebuilt.
	fnext *outPkt
}

// pktQueue is a FIFO of outPkts over one backing array. Consumed slots are
// cleared, and the queue rewinds to the base of the array whenever it
// drains: a lightly loaded connection keeps reusing one small array instead
// of allocating a fresh one per message, and a dead prefix never keeps
// transmitted packets reachable.
type pktQueue struct {
	buf  []*outPkt
	head int
}

func (q *pktQueue) len() int { return len(q.buf) - q.head }

// live returns the queued packets, oldest first; valid until the next push
// or drop.
func (q *pktQueue) live() []*outPkt { return q.buf[q.head:] }

func (q *pktQueue) push(op *outPkt) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		// Full, and at least half of it is consumed prefix: slide the live
		// part down rather than grow.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, op)
}

// drop removes the n oldest packets.
func (q *pktQueue) drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// unitRing holds one plane's in-flight window units, keyed by their head
// PSN, in emission order — which is ascending PSN, since a plane's PSNs are
// assigned at launch and its units leave the send queue in that order. An
// ACKed or dropped unit leaves a hole (op nil, PSN kept, so the slots stay
// sorted for the binary search); holes are skipped at the head and squeezed
// out when the array is full. Like pktQueue the ring rewinds to the base of
// its array whenever it empties, so a lightly loaded connection keeps one
// small array.
type unitRing struct {
	slots []unitSlot // slots[head] is live whenever the ring is non-empty
	head  int
}

type unitSlot struct {
	psn uint32
	op  *outPkt
}

func (r *unitRing) empty() bool { return r.head == len(r.slots) }

// insert adds a unit whose PSN the ring does not hold yet, in PSN order:
// a push when it is above every PSN in the ring, else a shift into place.
func (r *unitRing) insert(op *outPkt) {
	if r.empty() || op.psn > r.slots[len(r.slots)-1].psn {
		r.push(op)
		return
	}
	i := r.search(op.psn)
	r.slots = append(r.slots, unitSlot{})
	copy(r.slots[i+1:], r.slots[i:])
	r.slots[i] = unitSlot{psn: op.psn, op: op}
}

// push appends a unit whose PSN is above every PSN in the ring. A full array
// is compacted in place when at least a quarter of it is holes, and
// otherwise replaced by one of twice the size holding only the live units,
// so a push costs amortized O(1).
func (r *unitRing) push(op *outPkt) {
	if n := len(r.slots); n > 0 && n == cap(r.slots) {
		live := 0
		for _, s := range r.slots[r.head:] {
			if s.op != nil {
				live++
			}
		}
		dst := r.slots[:0]
		if live*4 > n*3 {
			dst = make([]unitSlot, 0, 2*n)
		}
		for _, s := range r.slots[r.head:] {
			if s.op != nil {
				dst = append(dst, s)
			}
		}
		clear(r.slots[len(dst):n])
		r.slots, r.head = dst, 0
	}
	r.slots = append(r.slots, unitSlot{psn: op.psn, op: op})
}

// search returns the index of the first slot at or after head whose PSN is
// at least psn.
func (r *unitRing) search(psn uint32) int {
	lo, hi := r.head, len(r.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.slots[m].psn < psn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the slot index of the live unit headed by psn, or -1. ACKs
// mostly arrive in order, so the head is checked before the search.
func (r *unitRing) find(psn uint32) int {
	i := r.head
	if i == len(r.slots) || r.slots[i].psn != psn {
		i = r.search(psn)
	}
	if i < len(r.slots) && r.slots[i].psn == psn && r.slots[i].op != nil {
		return i
	}
	return -1
}

// take removes the unit headed by psn and returns it, or nil if there is
// none.
func (r *unitRing) take(psn uint32) *outPkt {
	i := r.find(psn)
	if i < 0 {
		return nil
	}
	op := r.slots[i].op
	r.removeAt(i)
	return op
}

// removeAt turns the live slot i into a hole.
func (r *unitRing) removeAt(i int) {
	r.slots[i].op = nil
	for r.head < len(r.slots) && r.slots[r.head].op == nil {
		r.head++
	}
	if r.empty() {
		r.slots, r.head = r.slots[:0], 0
	}
}

// walk calls fn, in ascending PSN order, with the slot index of every unit
// live when the walk starts. fn may remove that unit and may re-enter code
// that pushes (an application callback sending again): units pushed during
// the walk are not visited, and when a push compacted or a removal rewound
// the array under the walk, it re-finds its place by PSN.
func (r *unitRing) walk(fn func(i int, op *outPkt)) {
	if r.empty() {
		return
	}
	end := r.slots[len(r.slots)-1].psn
	for i := r.head; i < len(r.slots); i++ {
		s := r.slots[i]
		if s.psn > end {
			return
		}
		if s.op == nil {
			continue
		}
		fn(i, s.op)
		if i >= len(r.slots) || r.slots[i].psn != s.psn {
			i = r.search(s.psn+1) - 1
		}
	}
}

// conn is the send-side state for one (source process, destination process)
// pair, held by value in its host's slab. What it keeps for life is small:
// PSN spaces, window accounting and DCTCP congestion control (§6.1). Queues,
// in-flight rings, timers and the host pointer they need are a pair's
// transient part (connWork), attached only while it has work.
type conn struct {
	key       connKey
	nextPSN   [2]uint32
	windowEnd [2]uint32
	// inflight + reserved are charged against min(cwnd, recvWindow), so
	// recvWindow bounds each.
	inflight int32
	reserved int32
	// DCTCP state (§6.1: "Congestion control follows DCTCP"). The ACK
	// counters reset every window, so 32 bits hold them.
	cwnd     float64
	alpha    float64
	ackTotal int32
	ackECN   int32
	// work is the transient part, nil while the pair is idle.
	work *connWork
}

// connWork is the part of a conn that only a pair with work uses. It comes
// off the host's free list when the pair first queues a fragment (attach)
// and goes back the moment nothing is in flight, queued, parked or held and
// both timers are disarmed (settle); its ring and queue arrays travel with
// it, so the next pair to take it allocates nothing.
type connWork struct {
	// host owns the free list the part belongs to; the pair's handlers and
	// pump reach the host through it.
	host *Host
	// unacked holds each plane's in-flight window units in PSN order; the
	// RTO retransmits, and failure handling walks, in that order.
	unacked [2]unitRing
	// parked holds reliable units that exhausted MaxRetx, in PSN order:
	// their window slots are freed and they are never retransmitted by the
	// RTO, but they stay visible to PendingTo so §5.2 Controller Forwarding
	// can still relay them, and a late (or controller-relayed) ACK completes
	// them via onAck.
	parked unitRing
	// sendQ holds launched-but-untransmitted fragments: a scattering
	// larger than the window streams out as ACKs free space.
	sendQ pktQueue
	rto   timer
	// doorbell fires Config.BatchWindow after a partial frame started
	// waiting for more same-destination messages; holdIdx is non-zero
	// while the queue head is deliberately delayed (the conn's position in
	// Host.held plus one; the host's barrier floor is clamped below the
	// held timestamp meanwhile), and flushAll forces every queued batchable
	// fragment out once the doorbell has rung, even if emission is
	// interleaved with window waits.
	doorbell timer
	holdIdx  int32
	flushAll bool
	// pins counts walks in progress that call out to the application
	// (OnStuck, OnSendFail). A settle re-entered from one of them must not
	// hand the rings being walked to another pair.
	pins uint8
}

// idle reports whether the part holds nothing a later send could not
// rebuild: nothing in flight, queued, parked, held or pinned, and both
// timers disarmed.
func (w *connWork) idle() bool {
	return w.unacked[0].empty() && w.unacked[1].empty() && w.sendQ.len() == 0 &&
		w.parked.empty() && w.holdIdx == 0 && w.pins == 0 &&
		!w.rto.isArmed() && !w.doorbell.isArmed()
}

// attach returns c's transient part, taking one off h's free list (or
// making one) if c has none. The timers are bound to c here: a part carries
// no handler while it is free.
func (c *conn) attach(h *Host) *connWork {
	if c.work != nil {
		return c.work
	}
	var w *connWork
	if n := len(h.connFree); n > 0 {
		w = h.connFree[n-1]
		h.connFree[n-1] = nil
		h.connFree = h.connFree[:n-1]
	} else {
		w = &connWork{host: h}
	}
	w.rto.init(h, (*connRTO)(c))
	w.doorbell.init(h, (*connDoorbell)(c))
	c.work = w
	return w
}

// settle returns c's transient part to the host's free list if it is idle.
// Everything in it is already empty; the arrays keep their capacity.
func (c *conn) settle() {
	w := c.work
	if w == nil || !w.idle() {
		return
	}
	w.rto.release()
	w.doorbell.release()
	c.work = nil
	w.host.connFree = append(w.host.connFree, w)
}

// conn returns the send side of the pair toward dst, meeting it first if
// need be.
func (p *Proc) conn(dst netsim.ProcID) *conn {
	p.conns = grow(p.conns, int(dst))
	h := p.host
	if i := p.conns[dst]; i != 0 {
		return h.conns.at(i)
	}
	i, c := h.conns.add()
	*c = conn{key: connKey{p.ID, dst}, cwnd: h.Cfg.InitCwnd}
	p.conns[dst] = i
	h.Stats.ConnsLive++
	return c
}

// findConn returns the send side of the pair (src, dst) if src is local and
// has met dst, else nil.
func (h *Host) findConn(src, dst netsim.ProcID) *conn {
	if p := h.proc(src); p != nil && uint(dst) < uint(len(p.conns)) {
		if i := p.conns[dst]; i != 0 {
			return h.conns.at(i)
		}
	}
	return nil
}

// window is the send window: min(receive window, congestion window).
func (c *conn) window() int { return min(int(c.cwnd), recvWindow) }

func (c *conn) available() int {
	a := c.window() - int(c.inflight) - int(c.reserved)
	if a < 0 {
		return 0
	}
	return a
}

// onAck processes one end-to-end ACK.
func (c *conn) onAck(reliable bool, psn uint32, ecn bool) {
	w := c.work
	if w == nil {
		return // duplicate ACK: nothing of the pair is in flight
	}
	k := cls(reliable)
	op := w.unacked[k].take(psn)
	if op == nil {
		// A late or controller-relayed ACK can complete a packet that
		// exhausted MaxRetx; its window slot was freed when it was parked,
		// so only scattering completion accounting remains.
		if reliable {
			if op := w.parked.take(psn); op != nil {
				w.host.ackChain(op)
				w.host.grantCredits()
				c.settle()
			}
		}
		return // duplicate ACK
	}
	h := w.host
	c.inflight--
	c.dctcpAck(k, psn, ecn, h.Cfg.MaxCwnd)
	if w.unacked[1].empty() {
		w.rto.stop()
	}
	h.ackChain(op)
	c.pump()
	h.grantCredits()
	c.settle()
}

// pump transmits queued fragments while window space is available,
// coalescing runs of adjacent batchable fragments into multi-message
// frames (§6.1 send batching).
func (c *conn) pump() { c.emitQueued(false) }

// maxFrameEntries bounds a frame's member count independently of the byte
// budget so the 16-bit span/offset fields cannot overflow.
const maxFrameEntries = 512

// emitQueued drains the send queue within the window. A run of batchable
// same-class fragments at the head either fills a frame (MTU bytes) and
// goes out immediately, or — unless force is set — stays queued with the
// doorbell timer armed, waiting up to the batch window for more
// same-destination traffic to coalesce with.
func (c *conn) emitQueued(force bool) {
	w := c.work
	if w == nil {
		return // nothing queued or held
	}
	if w.flushAll {
		force = true
	}
	held := false
	for int(c.inflight) < c.window() && w.sendQ.len() > 0 {
		op := w.sendQ.live()[0]
		if op.scat.aborted {
			w.sendQ.drop(1)
			continue
		}
		if !op.scat.batch {
			w.sendQ.drop(1)
			c.emitRun(op)
			continue
		}
		n, full := c.collectRun()
		if !full && !force {
			held = true
			break
		}
		run := w.sendQ.live()[:n]
		for i := 0; i < n-1; i++ {
			run[i].fnext = run[i+1]
		}
		w.sendQ.drop(n)
		c.emitRun(op)
	}
	if w.sendQ.len() == 0 {
		w.flushAll = false
	}
	c.updateHold(held)
}

// collectRun measures the batchable run at the head of the send queue:
// how many fragments coalesce into the next frame, and whether the frame
// is full — by bytes, by entry count, or because a non-coalescible
// fragment follows it (waiting longer could not grow it).
func (c *conn) collectRun() (n int, full bool) {
	q := c.work.sendQ.live()
	head := q[0]
	k := cls(head.scat.reliable)
	budget := c.work.host.Cfg.MTU
	bytes := int(head.size) + netsim.FrameEntryBytes
	n = 1
	for n < len(q) {
		op := q[n]
		if !op.scat.batch || cls(op.scat.reliable) != k {
			return n, true
		}
		if n >= maxFrameEntries {
			return n, true
		}
		if op.scat.aborted {
			// Rides along inside the frame's PSN span without payload.
			n++
			continue
		}
		nb := bytes + int(op.size) + netsim.FrameEntryBytes
		if nb > budget {
			return n, true
		}
		bytes = nb
		n++
	}
	return n, bytes >= budget || n >= maxFrameEntries
}

// emitRun transmits one window unit: a single fragment or a frame chain
// headed by head (fnext-linked). The head's PSN keys the unit in its
// plane's ring; the whole chain completes on its single ACK.
func (c *conn) emitRun(head *outPkt) {
	w := c.work
	h := w.host
	w.unacked[cls(head.scat.reliable)].push(head)
	c.inflight++
	if h.Obs.On() {
		now := h.wire.Now()
		for m := head; m != nil; m = m.fnext {
			if !m.scat.aborted {
				h.Obs.Rec(obs.SpanXmitWait, now-m.scat.ts)
			}
		}
	}
	if head.scat.batch {
		live := 0
		for m := head; m != nil; m = m.fnext {
			if !m.scat.aborted {
				live++
			}
		}
		h.sendOcc.Add(float64(live))
		if live > 1 {
			h.Stats.FramesSent++
			h.Stats.FrameMsgs += uint64(live)
		}
	}
	h.emit(c.buildUnit(h.pool, head))
	if head.scat.reliable && !w.rto.isArmed() {
		w.rto.reset(h, h.Cfg.RTO)
	}
}

// connRTO and connDoorbell are the handlers of a conn's two timers. They
// fire only while the conn's part is attached: settle takes disarmed parts
// alone.
type (
	connRTO      conn
	connDoorbell conn
)

func (c *connRTO) Fire()      { (*conn)(c).onRTO() }
func (c *connDoorbell) Fire() { (*conn)(c).onDoorbell() }

// onDoorbell flushes a held partial frame when the batch window expires.
// flushAll stays sticky until the queue drains so fragments blocked on
// window space go out as soon as slots free, instead of re-waiting.
func (c *conn) onDoorbell() {
	if c.work.host.stopped {
		return
	}
	c.work.flushAll = true
	c.emitQueued(true)
	c.settle()
}

// updateHold reconciles the doorbell timer and the host's held-timestamp
// floor with whether the queue head is (still) deliberately delayed.
func (c *conn) updateHold(held bool) {
	w := c.work
	h := w.host
	if held {
		head := w.sendQ.live()[0]
		if w.holdIdx == 0 {
			w.doorbell.reset(h, head.scat.batchWin)
		}
		h.holdSet(c, head.scat.ts)
	} else if w.holdIdx != 0 {
		w.doorbell.stop()
		h.holdClear(c)
	}
}

// dctcpAck runs the DCTCP window update: additive increase per ACK, and a
// multiplicative decrease by alpha/2 once per window where alpha is the
// EWMA of the ECN-marked fraction; the window grows up to maxCwnd.
func (c *conn) dctcpAck(k int, psn uint32, ecn bool, maxCwnd float64) {
	c.ackTotal++
	if ecn {
		c.ackECN++
	}
	if psn >= c.windowEnd[k] {
		frac := float64(c.ackECN) / float64(c.ackTotal)
		c.alpha = (1-dctcpGain)*c.alpha + dctcpGain*frac
		if c.ackECN > 0 {
			c.cwnd = c.cwnd * (1 - c.alpha/2)
			if c.cwnd < 1 {
				c.cwnd = 1
			}
		}
		c.ackTotal, c.ackECN = 0, 0
		c.windowEnd[0] = c.nextPSN[0]
		c.windowEnd[1] = c.nextPSN[1]
	}
	if c.cwnd < maxCwnd {
		c.cwnd += 1 / c.cwnd
	}
}

// onRTO retransmits every unACKed reliable packet (§5.1 Prepare phase loss
// recovery) in PSN order. Best-effort packets are never retransmitted;
// they expire via the send-failure timeout instead.
func (c *conn) onRTO() {
	w := c.work
	h := w.host
	if h.stopped {
		return
	}
	// The ring is already in PSN order. OnStuck may send again from inside
	// the walk; walk tolerates that, and the pin keeps the part attached.
	rearm := false
	exhausted := false
	w.pins++
	w.unacked[1].walk(func(i int, op *outPkt) {
		op.retx++
		if h.Cfg.MaxRetx > 0 && int(op.retx) > h.Cfg.MaxRetx {
			// Retransmission budget exhausted: report the stall (once per
			// (dst, ts)), free the window slot, and park the packet where
			// Controller Forwarding can still find it. Leaving it in
			// unacked would charge its inflight slot forever — wedging the
			// window — and re-fire OnStuck on every later RTO. A frame
			// parks as a whole chain and stalls every live member.
			w.unacked[1].removeAt(i)
			c.inflight--
			w.parked.insert(op)
			for m := op; m != nil; m = m.fnext {
				if !m.scat.aborted {
					h.reportStuck(c.key.src, c.key.dst, m.scat.ts)
				}
			}
			exhausted = true
			return
		}
		pkt := c.buildUnit(h.pool, op)
		if pkt == nil {
			// Every frame member was aborted since the last transmission.
			w.unacked[1].removeAt(i)
			c.inflight--
			exhausted = true
			return
		}
		h.Stats.PktsRetx++
		h.emit(pkt)
		rearm = true
	})
	w.pins--
	if rearm {
		w.rto.reset(h, h.Cfg.RTO*sim.Time(1+min(4, c.minRetx())))
	}
	if exhausted {
		// The freed slots can admit queued fragments and credit-blocked
		// scatterings immediately.
		c.pump()
		h.grantCredits()
	}
	c.settle()
}

func (c *conn) minRetx() int {
	m := int32(1 << 30)
	c.work.unacked[1].walk(func(_ int, op *outPkt) { m = min(m, op.retx) })
	if m == 1<<30 {
		return 0
	}
	return int(m)
}

// buildPacket materializes the wire packet for an in-flight entry from the
// host's packet pool; used for both first transmission and retransmission
// (barrier fields are stamped at emit time).
func (c *conn) buildPacket(pool *netsim.Pool, op *outPkt, psn uint32) *netsim.Packet {
	s := op.scat
	m := &s.msgs[op.msgIdx]
	pkt := pool.Get()
	pkt.Kind = netsim.KindData
	pkt.Src = c.key.src
	pkt.Dst = c.key.dst
	pkt.MsgTS = s.ts
	pkt.Reliable = s.reliable
	pkt.ConflictKey = s.conflict
	pkt.PSN = psn
	pkt.FragIdx = uint16(op.frag)
	pkt.EndOfMsg = op.endOfMsg
	pkt.Size = int(op.size) + netsim.HeaderBytes
	if op.endOfMsg {
		pkt.Payload = m.Data
	}
	return pkt
}

// buildUnit materializes the wire packet for a window unit: buildPacket
// for a single fragment, or a multi-message frame for a chain. Each
// transmission builds a fresh frame so aborted members drop out of the
// payload while their PSNs stay covered by the span. Returns nil when no
// live member remains.
func (c *conn) buildUnit(pool *netsim.Pool, head *outPkt) *netsim.Packet {
	if head.fnext == nil {
		return c.buildPacket(pool, head, head.psn)
	}
	f := pool.GetFrame()
	last := head
	size := 0
	for m := head; m != nil; m = m.fnext {
		last = m
		if m.scat.aborted {
			continue
		}
		f.Entries = append(f.Entries, netsim.FrameEntry{
			TS:          m.scat.ts,
			PSNOff:      uint16(m.psn - head.psn),
			Size:        int(m.size),
			ConflictKey: m.scat.conflict,
			Data:        m.scat.msgs[m.msgIdx].Data,
		})
		size += int(m.size) + netsim.FrameEntryBytes
	}
	pkt := pool.Get()
	pkt.Payload = f
	if len(f.Entries) == 0 {
		pool.Put(pkt)
		return nil
	}
	f.Span = uint16(last.psn - head.psn + 1)
	pkt.Kind = netsim.KindData
	pkt.Src = c.key.src
	pkt.Dst = c.key.dst
	pkt.MsgTS = f.Entries[0].TS
	pkt.Reliable = head.scat.reliable
	pkt.ConflictKey = f.Entries[0].ConflictKey
	pkt.PSN = head.psn
	pkt.EndOfMsg = true
	pkt.Frame = true
	pkt.Size = size + netsim.HeaderBytes
	return pkt
}

// stopFailTimers disarms the send-fail timer of every best-effort
// scattering that still has a packet queued or in flight on this conn;
// Host.Stop uses it so a stopped host leaves nothing in the timer queue.
func (c *conn) stopFailTimers() {
	w := c.work
	if w == nil {
		return
	}
	w.unacked[0].walk(func(_ int, op *outPkt) {
		for m := op; m != nil; m = m.fnext {
			m.scat.failTimer.stop()
		}
	})
	for _, op := range w.sendQ.live() {
		op.scat.failTimer.stop()
	}
}

// dropInflight abandons the un-ACKed unit in slot i of plane k (destination
// failed, scattering aborted, NAK, or best-effort timeout), freeing its
// window slot.
func (c *conn) dropInflight(k, i int) {
	w := c.work
	w.unacked[k].removeAt(i)
	c.inflight--
	if w.unacked[1].empty() {
		w.rto.stop()
	}
}

// dropScattering abandons all of s's un-ACKed packets on this conn (its
// queued fragments are skipped by the pump via s.aborted) and refills the
// freed window from the send queue. A frame is dropped only once every
// chained member's scattering has aborted; until then it stays in flight
// carrying the surviving members.
func (c *conn) dropScattering(s *scattering) {
	w := c.work
	if w == nil {
		return
	}
	for k := range w.unacked {
		w.unacked[k].walk(func(i int, op *outPkt) {
			if chainDead(op, s) {
				c.dropInflight(k, i)
			}
		})
	}
	// Parked (MaxRetx-exhausted) packets of an aborted scattering will
	// never be wanted again, not even by Controller Forwarding.
	w.parked.walk(func(i int, op *outPkt) {
		if chainDead(op, s) {
			w.parked.removeAt(i)
		}
	})
	c.pump()
	c.settle()
}

// chainDead reports whether the unit headed by op involves s and no
// longer carries any live member (s is treated as aborted: callers drop
// it before or while marking it so).
func chainDead(op *outPkt, s *scattering) bool {
	touches := false
	for m := op; m != nil; m = m.fnext {
		if m.scat == s {
			touches = true
		} else if !m.scat.aborted {
			return false
		}
	}
	return touches
}

// scattering is a group of messages sharing one timestamp (§2.1).
type scattering struct {
	owner    *Proc
	reliable bool
	// free marks a scattering released to its fabric's free list; any use
	// before it is taken again panics (as netsim's pooled flag does).
	free bool
	// msgs is the scattering's own copy of the caller's messages, taken at
	// Send, with each one's packet accounting.
	msgs []sendMsg
	ts   sim.Time
	// conflict is the sender-declared conflict key; every packet and frame
	// entry of the scattering carries it (DeliverConflictAware).
	conflict uint32
	launched bool
	aborted  bool
	done     bool
	// batch marks the scattering's fragments as coalescible into
	// multi-message frames (every message single-fragment, batching
	// enabled); batchWin is the doorbell window its fragments may wait for
	// company.
	batch    bool
	batchWin sim.Time
	// submitAt is the Send call time, recorded only while tracing; the
	// submit → launch gap is the credit wait (obs.SpanCreditWait).
	submitAt sim.Time

	totalPkts int
	// Credit reservation state, per destination connection, in first-use
	// order (ordered for deterministic partial-credit acquisition).
	credits []credit
	// pkts is the slab launch carves this scattering's outPkts from, with
	// capacity of at least totalPkts. It is never re-grown: sendQ, unacked,
	// parked and fnext chains hold pointers into it.
	pkts []outPkt
	// ACK tracking.
	unackedPkts int
	// failTimer drives best-effort loss detection. It leaves the queue at
	// the last ACK, where the scattering is released (releaseScattering).
	failTimer timer
	// recallsPending counts outstanding recall ACKs during abort.
	recallsPending int

	// Embedded storage for the common shape — one message, one destination,
	// one packet — so that such a scattering is a single object: msgs,
	// credits and pkts slice into these when they fit and into separate
	// slabs when they do not. A wide scattering keeps its slabs on the free
	// list, in those three slices' capacity.
	msgArr    [scatInline]sendMsg
	creditArr [scatInline]credit
	pktArr    [scatInline]outPkt
}

// sendMsg is one message of a scattering: the caller's Message, copied so
// that the caller may reuse its slice as soon as Send returns, with the
// message's packet count and how many of them are ACKed (for per-message
// send-failure reporting).
type sendMsg struct {
	Message
	frags int32
	acked int32
}

// scatInline is the embedded capacity of a scattering. It is 1, sized by
// bytes and not by count: at 4 the struct grows from 320 to 656 bytes, which
// on 64-byte single-message traffic cost more in collector work than the
// allocations it saved the rarer wide scatterings (docs/performance.md).
const scatInline = 1

// credit tracks one connection's share of a scattering's window demand.
type credit struct {
	conn     *conn
	needed   int
	reserved int
}

// fragsOf is the packet count of a message of size bytes (0: 64).
func fragsOf(size, mtu int) int {
	if size <= 0 {
		size = 64
	}
	return (size + mtu - 1) / mtu
}

func newScattering(p *Proc, msgs []Message, reliable bool, mtu int) *scattering {
	n, total := len(msgs), 0
	for i := range msgs {
		total += fragsOf(msgs[i].Size, mtu)
	}
	s := p.host.scats.get(scatClass(total))
	slab, credits, pkts := s.msgs, s.credits, s.pkts
	*s = scattering{owner: p, reliable: reliable, totalPkts: total,
		unackedPkts: total, pkts: pkts[:0]}
	switch {
	case cap(slab) >= n: // a recycled slab, or this scattering's own array
		s.msgs = slab[:n]
	case n <= scatInline:
		s.msgs = s.msgArr[:n]
	default:
		s.msgs = make([]sendMsg, n)
	}
	switch {
	case cap(credits) >= n:
		s.credits = credits[:0]
	case n <= scatInline:
		s.credits = s.creditArr[:0]
	default:
		s.credits = make([]credit, 0, n)
	}
	for i := range msgs {
		frags := fragsOf(msgs[i].Size, mtu)
		s.msgs[i] = sendMsg{Message: msgs[i], frags: int32(frags)}
		c := p.conn(msgs[i].Dst)
		// Destinations per scattering are few: a scan beats a map.
		j := 0
		for j < len(s.credits) && s.credits[j].conn != c {
			j++
		}
		if j == len(s.credits) {
			s.credits = append(s.credits, credit{conn: c})
		}
		s.credits[j].needed += frags
	}
	return s
}

// needEff is the launch requirement on one connection: the full demand,
// capped at the window — a message larger than the window can never hold
// more credits than the window, so it launches once it owns a whole
// window's worth and streams the rest via the send queue.
func (cr *credit) needEff() int {
	w := cr.conn.window()
	if w < 1 {
		w = 1
	}
	if cr.needed < w {
		return cr.needed
	}
	return w
}

func (s *scattering) fullyReserved() bool {
	for i := range s.credits {
		if s.credits[i].reserved < s.credits[i].needEff() {
			return false
		}
	}
	return true
}

// tryAcquire reserves as many window credits as available for s, holding
// partial reservations (the paper's anti-livelock rule: a large scattering
// keeps its credits while waiting, §6.1).
func (h *Host) tryAcquire(s *scattering) {
	for i := range s.credits {
		cr := &s.credits[i]
		missing := cr.needEff() - cr.reserved
		if missing <= 0 {
			continue
		}
		take := cr.conn.available()
		if take > missing {
			take = missing
		}
		if take > 0 {
			cr.conn.reserved += int32(take)
			cr.reserved += take
		}
	}
}

// grantCredits re-scans the wait queue in FIFO order after window space was
// freed, launching scatterings that became fully reserved.
func (h *Host) grantCredits() {
	if len(h.waitQ) == 0 {
		return
	}
	remaining := h.waitQ[:0]
	for _, s := range h.waitQ {
		if s.aborted {
			h.releaseReservations(s)
			continue
		}
		h.tryAcquire(s)
		if s.fullyReserved() {
			h.launch(s)
		} else {
			remaining = append(remaining, s)
		}
	}
	h.waitQ = remaining
}

func (h *Host) releaseReservations(s *scattering) {
	for i := range s.credits {
		s.credits[i].conn.reserved -= int32(s.credits[i].reserved)
		s.credits[i].reserved = 0
	}
}

// launch stamps the scattering with the egress timestamp and transmits all
// fragments of all messages (§6.1: the timestamp is attached when the
// scattering leaves the send buffer, so the host clock remains a valid
// barrier floor).
func (h *Host) launch(s *scattering) {
	if s.free {
		panic(useFreed)
	}
	s.ts = h.nextTS()
	s.launched = true
	if s.submitAt > 0 {
		h.Obs.Rec(obs.SpanCreditWait, s.ts-s.submitAt)
	}
	h.releaseReservations(s)
	if s.reliable {
		// Joining the outstanding list MUST precede any emission: the
		// packets below carry the commit floor, and this scattering is
		// uncommitted until all its ACKs arrive.
		h.outstanding = append(h.outstanding, s)
	}
	k := cls(s.reliable)
	mtu := h.Cfg.MTU
	if s.totalPkts <= scatInline {
		s.pkts = s.pktArr[:0]
	} else if cap(s.pkts) < s.totalPkts {
		s.pkts = make([]outPkt, 0, s.totalPkts)
	}
	for i := range s.msgs {
		m := &s.msgs[i]
		c := s.owner.conn(m.Dst)
		size := m.Size
		if size <= 0 {
			size = 64
		}
		frags := int(m.frags)
		for f := 0; f < frags; f++ {
			fragSize := mtu
			if f == frags-1 {
				fragSize = size - f*mtu
			}
			psn := c.nextPSN[k]
			c.nextPSN[k]++
			if len(s.pkts) == cap(s.pkts) {
				panic("core: scattering packet slab would re-grow under live pointers")
			}
			s.pkts = append(s.pkts, outPkt{
				psn: psn, msgIdx: int32(i), frag: int32(f),
				endOfMsg: f == frags-1,
				size:     int32(fragSize), scat: s,
			})
			op := &s.pkts[len(s.pkts)-1]
			track := s.reliable || !h.Cfg.DisableBEAck
			if track {
				// Queue; the pump transmits within the window, streaming
				// oversized scatterings as ACKs return.
				c.attach(h).sendQ.push(op)
			} else {
				s.unackedPkts-- // fire-and-forget
				h.emit(c.buildPacket(h.pool, op, psn))
			}
		}
		h.Stats.MsgsSent++
	}
	for i := range s.credits {
		s.credits[i].conn.pump() // ordered: deterministic emission
	}
	switch {
	case s.reliable:
	case h.Cfg.DisableBEAck:
		h.scats.drop(s) // fire-and-forget: nothing completes it
	default:
		s.failTimer.init(h, (*scatFail)(s))
		s.failTimer.reset(h, h.Cfg.SendFailTimeout)
	}
}

// ackChain completes every member of one window unit: a frame is ACKed as
// a whole, since every chained member was carried (or spanned) by the
// acknowledged packet. A member's scattering may be released at its own
// ACK, which clears its packets, so the next link is read first.
func (h *Host) ackChain(op *outPkt) {
	for m := op; m != nil; {
		next := m.fnext
		h.onPacketAcked(m)
		m = next
	}
}

// onPacketAcked updates scattering completion state after an ACK.
func (h *Host) onPacketAcked(op *outPkt) {
	s := op.scat
	if s.free {
		panic(useFreed)
	}
	s.unackedPkts--
	s.msgs[op.msgIdx].acked++
	if s.unackedPkts > 0 || s.done || s.aborted {
		return
	}
	s.done = true
	if h.Obs.On() {
		h.Obs.Rec(obs.SpanAckWait, h.wire.Now()-s.ts)
	}
	if s.reliable {
		h.reapOutstanding()
	} else {
		s.failTimer.stop()
		h.releaseScattering(s)
	}
}

// reapOutstanding pops completed scatterings off the head of the
// outstanding list and advertises the advanced commit floor with an
// explicit commit message to the neighbor switch (§5.1 Commit phase).
// Every host emission already carries the floor, so under load the
// explicit commit packet is elided: the next data packet or beacon
// propagates the advance within a fraction of the beacon interval.
func (h *Host) reapOutstanding() {
	n := 0
	for n < len(h.outstanding) && h.outstanding[n].done {
		n++
	}
	if n == 0 {
		return
	}
	// Committed: nothing else holds a scattering that completed without an
	// abort. An aborted one may still be named by a recall or a frame chain
	// and is left to the collector.
	for _, s := range h.outstanding[:n] {
		if !s.aborted {
			h.releaseScattering(s)
		}
	}
	// Slide the rest down instead of re-slicing past the head: the list keeps
	// its capacity (a host that commits as fast as it sends would otherwise
	// re-grow it from nothing every scattering) and its dead prefix does not
	// keep completed scatterings reachable.
	rest := copy(h.outstanding, h.outstanding[n:])
	clear(h.outstanding[rest:])
	h.outstanding = h.outstanding[:rest]
	if h.wire.Now()-h.lastUplinkSend < h.Cfg.BeaconInterval/4 {
		return // a very recent emission (or an imminent one) carries it
	}
	h.sendCommit()
}

func (h *Host) sendCommit() {
	h.Stats.Commits++
	pkt := h.pool.Get()
	pkt.Kind, pkt.Src, pkt.Size = netsim.KindCommit, h.reprProc, netsim.BeaconBytes
	h.emit(pkt)
}

// scatFail is the handler of a best-effort scattering's send-fail timer.
type scatFail scattering

func (s *scatFail) Fire() { s.owner.host.beSendTimeout((*scattering)(s)) }

// beSendTimeout fires the best-effort loss-detection timer: every message
// with un-ACKed packets is reported failed (§2.1: detection without
// retransmission).
func (h *Host) beSendTimeout(s *scattering) {
	if s.free {
		panic(useFreed)
	}
	if h.stopped || s.done || s.aborted {
		return
	}
	h.abandon(s)
	for i := range s.msgs {
		if s.msgs[i].acked < s.msgs[i].frags {
			h.failMessage(s, i)
		}
	}
	// Free the window slots of the lost packets.
	for i := range s.credits {
		s.credits[i].conn.dropScattering(s)
	}
	h.grantCredits()
}

func (h *Host) failMessage(s *scattering, msgIdx int) {
	h.Stats.MsgsFailed++
	m := &s.msgs[msgIdx]
	if s.owner.OnSendFail != nil {
		s.owner.OnSendFail(SendFailure{TS: s.ts, Dst: m.Dst, Data: m.Data})
	}
}
