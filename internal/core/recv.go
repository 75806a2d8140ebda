package core

import (
	"container/heap"

	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
)

// pending is one complete message waiting in the reorder buffer. Entries
// come from the host's free list (getPending) and belong to the reorder
// buffer until dispatch has copied them into a Delivery; the three deliver
// functions are the one place they go back (putPending).
type pending struct {
	ts       sim.Time
	src, dst netsim.ProcID
	psn      uint32 // PSN of the last fragment; tie-break within (ts, src)
	data     any
	size     int
	reliable bool
	// conflict is the sender-declared conflict key (DeliverConflictAware);
	// 0 = declared non-conflicting.
	conflict uint32
	// enqAt is the reassembly-complete time, recorded only while tracing;
	// the enqueue → deliver gap is the barrier wait (obs.SpanBarrierWait).
	enqAt sim.Time
}

// deliveryHeap is one plane's reorder buffer: it orders messages by
// (timestamp, sender, PSN) — the total order of §2.1 with ties broken by
// sender ID.
type deliveryHeap []*pending

func (h deliveryHeap) Len() int           { return len(h) }
func (h deliveryHeap) Less(i, j int) bool { return pendingLess(h[i], h[j]) }
func (h deliveryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)        { *h = append(*h, x.(*pending)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// top returns the smallest buffered entry; callers check Len first.
func (h deliveryHeap) top() *pending { return h[0] }

// push buffers an entry.
func (h *deliveryHeap) push(p *pending) { heap.Push(h, p) }

// pop removes and returns the smallest buffered entry.
func (h *deliveryHeap) pop() *pending { return heap.Pop(h).(*pending) }

// filter drops buffered entries matching drop (failure discard and recall
// tombstoning).
func (h *deliveryHeap) filter(drop func(*pending) bool) {
	kept := (*h)[:0]
	for _, p := range *h {
		if !drop(p) {
			kept = append(kept, p)
		}
	}
	*h = kept
	heap.Init(h)
}

// pendingLess is the (ts, src, psn) total-order key of §2.1 on two entries.
func pendingLess(a, b *pending) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.psn < b.psn
}

// asmBuf reassembles one class's fragment stream for one (sender, local
// process) pair. Reassembly is keyed on (PSN - FragIdx), the message's
// first PSN, so holes left by lost best-effort packets never block later
// messages. The zero value is an empty buffer at PSN 0: in-order
// single-fragment traffic only advances doneBase, and the two maps are made
// the first time a reception hole or a multi-fragment message needs them.
type asmBuf struct {
	doneBase uint32 // every PSN below this is consumed or skipped
	capped   bool   // best-effort: bound the done set by forcing doneBase forward
	done     map[uint32]bool
	frags    map[uint32]*netsim.Packet
}

// asmDoneCap bounds the done set of a best-effort assembly buffer: beyond
// it, permanently-lost PSN holes are forgotten (their late arrivals are
// treated as duplicates — acceptable for at-most-once traffic).
const asmDoneCap = 4096

// releaseFrag returns a fragment an assembly buffer consumed to fp, the
// host's packet pool, which the buffer's methods are handed. Unit tests
// that drive a buffer with their own reusable packets swap it for a counter.
var releaseFrag = (*netsim.Pool).Put

func (a *asmBuf) isDup(psn uint32) bool {
	return psn < a.doneBase || a.done[psn] || a.frags[psn] != nil
}

func (a *asmBuf) markDone(fp *netsim.Pool, psn uint32) {
	if psn < a.doneBase {
		return
	}
	if psn == a.doneBase && len(a.done) == 0 {
		a.doneBase++ // in order with no hole open: nothing to remember
		return
	}
	if a.done == nil {
		a.done = make(map[uint32]bool)
	}
	a.done[psn] = true
	for a.done[a.doneBase] {
		delete(a.done, a.doneBase)
		a.doneBase++
	}
	if a.capped {
		for len(a.done) > asmDoneCap {
			// Force-advancing doneBase past a PSN that still holds a buffered
			// fragment would strand it forever: every later sibling arrival is
			// classified a duplicate, so the fragment is never consumed and
			// never returned to the pool. Drop and free it as the base passes.
			if f := a.frags[a.doneBase]; f != nil {
				delete(a.frags, a.doneBase)
				releaseFrag(fp, f)
			}
			delete(a.done, a.doneBase)
			a.doneBase++
		}
	}
}

// idle reports whether the buffer holds no transient state — no buffered
// fragments and no reception holes — so its position is fully captured by
// doneBase alone and the buffer can go back to the free list.
func (a *asmBuf) idle() bool { return len(a.frags) == 0 && len(a.done) == 0 }

// markDoneSpan consumes span consecutive PSNs starting at psn — a frame's
// whole sequence range, including members elided from the payload because
// their scattering aborted. Keeping the range contiguous is what lets
// doneBase advance without per-frame holes.
func (a *asmBuf) markDoneSpan(fp *netsim.Pool, psn uint32, span uint16) {
	if span == 0 {
		span = 1
	}
	for i := uint32(0); i < uint32(span); i++ {
		a.markDone(fp, psn+i)
	}
}

// add buffers a fragment and returns the carrier packet and total payload
// size when the fragment completed its message.
func (a *asmBuf) add(fp *netsim.Pool, pkt *netsim.Packet) (last *netsim.Packet, size int, complete bool) {
	if pkt.FragIdx == 0 && pkt.EndOfMsg {
		// A single-fragment message completes on arrival: the fragment never
		// needs to be buffered.
		a.markDone(fp, pkt.PSN)
		return pkt, pkt.Size - netsim.HeaderBytes, true
	}
	if a.frags == nil {
		a.frags = make(map[uint32]*netsim.Packet)
	}
	a.frags[pkt.PSN] = pkt
	start := pkt.PSN - uint32(pkt.FragIdx)
	j := start
	for {
		f, ok := a.frags[j]
		if !ok {
			return nil, 0, false
		}
		size += f.Size - netsim.HeaderBytes
		if f.EndOfMsg {
			last = f
			break
		}
		j++
	}
	for k := start; k <= j; k++ {
		f := a.frags[k]
		delete(a.frags, k)
		a.markDone(fp, k)
		// Consumed non-final fragments are terminal here; the final fragment
		// is returned to the caller, which releases it after the payload
		// reference has been copied out.
		if f != last {
			releaseFrag(fp, f)
		}
	}
	return last, size, true
}

// skip consumes a fragment position (and any buffered siblings of the same
// message) without delivering — used for ordering NAKs and recalls. The
// sweep must not stop at a reception hole below the skipped slot: a sibling
// buffered at or beyond the slot would otherwise survive its own
// consumption, linger unbounded, and let a late arrival in the hole
// "complete" a message whose slot was already skipped.
func (a *asmBuf) skip(fp *netsim.Pool, pkt *netsim.Packet) {
	start := pkt.PSN - uint32(pkt.FragIdx)
	a.markDone(fp, pkt.PSN)
	for j := start; ; j++ {
		f, ok := a.frags[j]
		if !ok {
			if j < pkt.PSN {
				continue // hole below the skipped slot: keep sweeping
			}
			break
		}
		delete(a.frags, j)
		a.markDone(fp, j)
		releaseFrag(fp, f)
		if f.EndOfMsg {
			break
		}
	}
}

// dropWhere removes buffered fragments matching pred (failure discard).
func (a *asmBuf) dropWhere(fp *netsim.Pool, pred func(*netsim.Packet) bool) {
	for psn, f := range a.frags {
		if pred(f) {
			delete(a.frags, psn)
			a.markDone(fp, psn)
			releaseFrag(fp, f)
		}
	}
}

// rconn is receive-side state per (remote sender process, local process),
// held by value in its host's slab. An idle pair is its two consumed-prefix
// cursors; the assembly buffers, ACK accumulators and the host pointer the
// flush handlers need are its transient part (rconnWork), attached while a
// packet is handled and until its ACKs have flushed.
type rconn struct {
	key connKey
	// doneBase holds each plane's asmBuf.doneBase while work is nil; an
	// attached part's buffers carry the cursors meanwhile.
	doneBase [2]uint32
	work     *rconnWork
}

// rconnWork is the transient part of an rconn: each plane's assembly buffer
// and ACK accumulator. Like connWork it lives on a per-host free list
// between pairs, its maps travelling with it.
type rconnWork struct {
	// host owns the free list the part belongs to.
	host *Host
	bufs [2]asmBuf
	acks [2]ackPend
}

// attach gives rc a transient part, from h's free list when it has one,
// loaded with rc's cursors and with its flush timers bound to rc.
func (rc *rconn) attach(h *Host) *rconnWork {
	if rc.work != nil {
		return rc.work
	}
	var w *rconnWork
	if n := len(h.rconnFree); n > 0 {
		w = h.rconnFree[n-1]
		h.rconnFree[n-1] = nil
		h.rconnFree = h.rconnFree[:n-1]
	} else {
		w = &rconnWork{host: h}
		w.bufs[0].capped = true
	}
	w.bufs[0].doneBase, w.bufs[1].doneBase = rc.doneBase[0], rc.doneBase[1]
	w.acks[0].timer.init(h, (*rconnAckBE)(rc))
	w.acks[1].timer.init(h, (*rconnAckRel)(rc))
	rc.work = w
	return w
}

// settle stores rc's cursors back and returns its transient part to the
// host's free list once both buffers and both accumulators are idle.
func (rc *rconn) settle() {
	w := rc.work
	if w == nil || !w.bufs[0].idle() || !w.bufs[1].idle() || !w.acks[0].idle() || !w.acks[1].idle() {
		return
	}
	rc.doneBase = [2]uint32{w.bufs[0].doneBase, w.bufs[1].doneBase}
	w.acks[0].timer.release()
	w.acks[1].timer.release()
	rc.work = nil
	w.host.rconnFree = append(w.host.rconnFree, w)
}

// rconnAckBE and rconnAckRel are the handlers of an rconn's two ACK-flush
// timers. They fire only while the part is attached: settle takes disarmed
// parts alone.
type (
	rconnAckBE  rconn
	rconnAckRel rconn
)

func (r *rconnAckBE) Fire()  { r.work.host.ackTimeout((*rconn)(r), 0) }
func (r *rconnAckRel) Fire() { r.work.host.ackTimeout((*rconn)(r), 1) }

// getRconn returns the receive state of (src, dst) with its transient part
// attached, meeting the pair first if need be; the caller settles it when
// done with the packet. It returns nil when dst is not a local process.
func (h *Host) getRconn(src, dst netsim.ProcID) *rconn {
	p := h.proc(dst)
	if p == nil {
		return nil
	}
	p.rconns = grow(p.rconns, int(src))
	var rc *rconn
	if i := p.rconns[src]; i != 0 {
		rc = h.rconns.at(i)
	} else {
		i, rc = h.rconns.add()
		rc.key = connKey{src, dst}
		p.rconns[src] = i
		h.Stats.ConnsLive++
	}
	rc.attach(h)
	return rc
}

// findRconn returns the receive side of the pair (src, dst) if dst is local
// and has met src, else nil.
func (h *Host) findRconn(src, dst netsim.ProcID) *rconn {
	if p := h.proc(dst); p != nil && uint(src) < uint(len(p.rconns)) {
		if i := p.rconns[src]; i != 0 {
			return h.rconns.at(i)
		}
	}
	return nil
}

// HandlePacket is the host's network receive entry point; the substrate
// adapter (netsim or udpnet) calls it for every packet delivered
// to the host, beacons included.
//
// HandlePacket takes ownership of pkt and releases it to the host's packet
// pool once consumed; data packets buffered for reassembly are released
// when the assembly buffer consumes them. Callers must not touch pkt
// afterwards.
func (h *Host) HandlePacket(pkt *netsim.Packet) {
	// Src indexes pair tables (MaxProcs); only a beacon names no process.
	if h.stopped || pkt.Kind != netsim.KindBeacon && !validProc(pkt.Src) {
		h.pool.Put(pkt)
		return
	}
	switch pkt.Kind {
	case netsim.KindBeacon:
		h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
	case netsim.KindData:
		if h.dataBarriers {
			h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
		}
		h.handleData(pkt) // takes ownership: pkt may be buffered
		return
	case netsim.KindAck:
		if h.dataBarriers {
			h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
		}
		if c := h.findConn(pkt.Dst, pkt.Src); c != nil {
			if batch, ok := pkt.Payload.(*netsim.AckBatch); ok {
				for i, psn := range batch.PSNs {
					c.onAck(pkt.Reliable, psn, batch.ECN[i])
				}
			} else {
				c.onAck(pkt.Reliable, pkt.PSN, pkt.ECN)
			}
		}
	case netsim.KindNak:
		h.handleNak(pkt)
	case netsim.KindRecall:
		h.handleRecall(pkt)
	case netsim.KindRecallAck:
		h.handleRecallAck(pkt)
	case netsim.KindCtrl:
		// Raw (unordered, unacknowledged) application RPC — the paper's
		// response messages that "do not need to be ordered by 1Pipe".
		if proc := h.proc(pkt.Dst); proc != nil && proc.OnRaw != nil {
			proc.OnRaw(pkt.Src, pkt.Payload)
		}
	}
	h.pool.Put(pkt)
}

func (h *Host) updateBarriers(be, c sim.Time) {
	if hb := h.Cfg.DeliveryHoldback; hb > 0 {
		be -= hb
		c -= hb
	}
	changed := false
	if be > h.barrierBE {
		h.barrierBE = be
		changed = true
	}
	if c > h.barrierC {
		h.barrierC = c
		changed = true
	}
	if changed {
		h.drain()
	}
}

// Barriers exposes the host's current view of the two aggregated barriers.
func (h *Host) Barriers() (be, c sim.Time) { return h.barrierBE, h.barrierC }

func (h *Host) handleData(pkt *netsim.Packet) {
	if pkt.Frame {
		h.handleFrame(pkt)
		return
	}
	rc := h.getRconn(pkt.Src, pkt.Dst)
	if rc == nil {
		h.pool.Put(pkt)
		return
	}
	defer rc.settle()
	buf := &rc.work.bufs[cls(pkt.Reliable)]
	if buf.isDup(pkt.PSN) {
		h.Stats.DupPkts++
		h.ackPacket(rc, pkt) // retransmission of a consumed packet: re-ACK
		h.pool.Put(pkt)
		return
	}
	// Ordering check: a best-effort packet whose message timestamp can no
	// longer be delivered in order is dropped with a NAK to the sender
	// (§4.1); a reliable packet at or below the delivered commit floor is
	// a duplicate of a committed message. Untagged conflict-aware traffic
	// is exempt from both: it delivers outside the total order, so it can
	// never be "too late", and the tagged-only delivered floors say nothing
	// about it (PSN dedup above already covers retransmissions).
	relaxed := h.relaxedKey(pkt.ConflictKey)
	if !relaxed && !pkt.Reliable && h.lateBE(pkt.MsgTS, pkt.Src) {
		h.Stats.Naks++
		nak := h.pool.Get()
		nak.Kind, nak.Src, nak.Dst = netsim.KindNak, pkt.Dst, pkt.Src
		nak.PSN, nak.MsgTS, nak.Size = pkt.PSN, pkt.MsgTS, netsim.BeaconBytes
		h.emit(nak)
		buf.skip(h.pool, pkt)
		h.pool.Put(pkt)
		return
	}
	if !relaxed && pkt.Reliable && pkt.MsgTS <= h.deliveredC {
		h.Stats.DupPkts++
		h.ackPacket(rc, pkt)
		buf.skip(h.pool, pkt)
		h.pool.Put(pkt)
		return
	}
	h.ackPacket(rc, pkt)
	last, size, complete := buf.add(h.pool, pkt)
	if complete {
		// enqueueMsg copies the payload reference out of the final fragment;
		// the carrier packet itself is terminal here.
		h.enqueueMsg(last, size)
		h.pool.Put(last)
		h.drain()
	}
}

// handleFrame consumes a multi-message frame: one ACK, one dup check and
// one contiguous PSN-span consumption for the whole unit, then one reorder
// -buffer entry per live member with its own timestamp and reconstructed
// per-member PSN — so delivery order is identical to the unbatched wire.
func (h *Host) handleFrame(pkt *netsim.Packet) {
	f, ok := pkt.Payload.(*netsim.Frame)
	rc := (*rconn)(nil)
	if ok && len(f.Entries) > 0 {
		rc = h.getRconn(pkt.Src, pkt.Dst)
	}
	if rc == nil {
		h.pool.Put(pkt)
		return
	}
	defer rc.settle()
	buf := &rc.work.bufs[cls(pkt.Reliable)]
	if buf.isDup(pkt.PSN) {
		h.Stats.DupPkts++
		h.ackPacket(rc, pkt) // retransmission of a consumed frame: re-ACK
		h.pool.Put(pkt)
		return
	}
	// Ordering check (§4.1): entries ascend, so the frame's oldest member
	// decides whether the whole unit can still be delivered in order. The
	// sender fails every member of a NAKed frame. Under DeliverConflictAware
	// only tagged members are order-constrained, so the oldest *tagged*
	// member decides; untagged members share the frame's fate either way
	// (the same shared-fate rule a lost frame already imposes). With every
	// member tagged, the oldest tagged member IS Entries[0] — identical to
	// the unified decision.
	gate := 0
	if h.Cfg.Mode == DeliverConflictAware {
		gate = -1
		for i := range f.Entries {
			if f.Entries[i].ConflictKey != 0 {
				gate = i
				break
			}
		}
	}
	if !pkt.Reliable && gate >= 0 && h.lateBE(f.Entries[gate].TS, pkt.Src) {
		h.Stats.Naks++
		nak := h.pool.Get()
		nak.Kind, nak.Src, nak.Dst = netsim.KindNak, pkt.Dst, pkt.Src
		nak.PSN, nak.MsgTS, nak.Size = pkt.PSN, f.Entries[gate].TS, netsim.BeaconBytes
		h.emit(nak)
		buf.markDoneSpan(h.pool, pkt.PSN, f.Span)
		h.pool.Put(pkt)
		return
	}
	h.ackPacket(rc, pkt)
	buf.markDoneSpan(h.pool, pkt.PSN, f.Span)
	enq := 0
	for i := range f.Entries {
		e := &f.Entries[i]
		if pkt.Reliable && e.TS <= h.deliveredC && !h.relaxedKey(e.ConflictKey) {
			h.Stats.DupPkts++ // retransmitted member of a committed frame
			continue
		}
		h.enqueuePending(e.TS, pkt.Src, pkt.Dst, pkt.PSN+uint32(e.PSNOff),
			e.Data, e.Size, pkt.Reliable, e.ConflictKey, pkt.QueueWait)
		enq++
	}
	h.pool.Put(pkt)
	if enq > 0 {
		h.drain()
	}
}

// lateBE reports whether a best-effort message keyed (ts, src) sorts before
// the last message delivered on the best-effort floor, so that delivering
// it now would break the (ts, src) order. An equal timestamp is late only
// from a lower sender: the merged order breaks timestamp ties by sender.
func (h *Host) lateBE(ts sim.Time, src netsim.ProcID) bool {
	return ts < h.deliveredBE || ts == h.deliveredBE && src < h.deliveredSrc
}

// advanceBEFloor records a delivery keyed (ts, src) on the best-effort
// floor.
func (h *Host) advanceBEFloor(ts sim.Time, src netsim.ProcID) {
	if ts > h.deliveredBE || ts == h.deliveredBE && src > h.deliveredSrc {
		h.deliveredBE, h.deliveredSrc = ts, src
	}
}

// relaxedKey reports whether a message with the given conflict key is
// delivered outside the total order: DeliverConflictAware mode with an
// untagged (key 0) message. Tagged messages — and every message in the
// other modes — go through the ordinary ordered paths.
func (h *Host) relaxedKey(key uint32) bool {
	return h.Cfg.Mode == DeliverConflictAware && key == 0
}

// ackPend accumulates one plane's ACKs toward an rconn's sender until
// flushed. batch is held from the first ackPacket of a flush window until
// flushAcks hands it to the ACK packet; nil in between.
type ackPend struct {
	batch *netsim.AckBatch
	timer timer
}

// idle reports whether nothing is pending: the accumulator holds no state
// a later ackPacket could not rebuild.
func (p *ackPend) idle() bool { return p.batch == nil && !p.timer.isArmed() }

func (h *Host) ackPacket(rc *rconn, pkt *netsim.Packet) {
	if !pkt.Reliable && h.Cfg.DisableBEAck {
		return
	}
	if h.Cfg.AckFlush <= 0 {
		ack := h.pool.Get()
		ack.Kind, ack.Src, ack.Dst = netsim.KindAck, pkt.Dst, pkt.Src
		ack.PSN, ack.MsgTS, ack.ECN, ack.Reliable = pkt.PSN, pkt.MsgTS, pkt.ECN, pkt.Reliable
		ack.Size = netsim.BeaconBytes
		h.emit(ack)
		return
	}
	k := cls(pkt.Reliable)
	p := &rc.work.acks[k]
	if p.batch == nil {
		p.batch = h.pool.GetAckBatch()
		p.timer.reset(h, h.Cfg.AckFlush)
	}
	p.batch.PSNs = append(p.batch.PSNs, pkt.PSN)
	p.batch.ECN = append(p.batch.ECN, pkt.ECN)
	if len(p.batch.PSNs) >= ackBatchMax {
		h.flushAcks(rc, k)
	}
}

// flushAcks emits one coalesced ACK packet carrying every PSN pending on
// plane k of rc.
func (h *Host) flushAcks(rc *rconn, k int) {
	p := &rc.work.acks[k]
	if p.batch == nil {
		return
	}
	batch := p.batch
	p.batch = nil
	p.timer.stop()
	ack := h.pool.Get()
	ack.Kind, ack.Src, ack.Dst = netsim.KindAck, rc.key.dst, rc.key.src
	ack.PSN, ack.Reliable = batch.PSNs[0], k == 1
	ack.Payload = batch // the packet owns it from here: its release releases it
	ack.Size = netsim.HeaderBytes + 5*len(batch.PSNs)
	h.emit(ack)
}

// ackTimeout is the flush timer of plane k of rc firing: the ACKs go out,
// and a pair with nothing else pending settles.
func (h *Host) ackTimeout(rc *rconn, k int) {
	h.flushAcks(rc, k)
	rc.settle()
}

func (h *Host) enqueueMsg(pkt *netsim.Packet, size int) {
	h.enqueuePending(pkt.MsgTS, pkt.Src, pkt.Dst, pkt.PSN, pkt.Payload,
		size, pkt.Reliable, pkt.ConflictKey, pkt.QueueWait)
}

func (h *Host) enqueuePending(ts sim.Time, src, dst netsim.ProcID, psn uint32,
	data any, size int, reliable bool, conflict uint32, queueWait sim.Time) {
	// Discard semantics of failure handling (§5.2): messages from a
	// failed process beyond its failure timestamp are never delivered,
	// and recalled scattering members are tombstoned. These bind the
	// relaxed (untagged conflict-aware) classes too: atomicity is not
	// traded away by relaxing order.
	if failTS, dead := h.failedPeers[src]; dead && ts > failTS {
		return
	}
	if h.recallTomb[recallKey{dst: src, ts: ts}] {
		return
	}
	p := h.getPending()
	*p = pending{
		ts: ts, src: src, dst: dst, psn: psn,
		data: data, size: size, reliable: reliable, conflict: conflict,
	}
	if h.Obs.On() {
		p.enqAt = h.wire.Now()
		// ts is the sender's launch timestamp; transit is measured
		// against this (skew-bounded) receiver clock.
		h.Obs.Rec(obs.SpanNetTransit, p.enqAt-p.ts)
		h.Obs.Rec(obs.SpanSwitchQueue, queueWait)
	}
	var q *deliveryHeap
	switch {
	case h.relaxedKey(conflict) && !reliable:
		// Untagged best-effort under DeliverConflictAware: locally stable
		// the moment reassembly completes — deliver immediately, no barrier
		// wait, outside the total order (0.5 RTT, the Generic Multicast
		// fast path).
		h.deliverNow(p)
		return
	case h.relaxedKey(conflict):
		// Untagged reliable: buffered until the commit barrier covers it,
		// so the §5.2 recall window still guards failure atomicity, but
		// outside the cross-class order (its own queue, no floor updates).
		q = &h.rlxQ
	case reliable:
		q = &h.relQ
	default:
		q = &h.beQ
	}
	q.push(p)
	if hot := int64(q.Len()); hot > h.Stats.ReorderHotMax {
		h.Stats.ReorderHotMax = hot
	}
	h.Stats.BufferedMsgs++
	h.Stats.BufferedBytes += int64(size)
	if h.Stats.BufferedBytes > h.Stats.MaxBufferBytes {
		h.Stats.MaxBufferBytes = h.Stats.BufferedBytes
	}
}

// drain delivers every buffered message the barriers cover, in (ts, src)
// order. Best-effort delivery requires ts < barrierBE (strictly: equal
// timestamps may still arrive); reliable delivery requires ts <= barrierC
// (§5.1). Unified mode gates both classes on both barriers to produce one
// cross-class total order. Contiguous runs for one process accumulate into
// a delivery batch flushed through OnDeliverBatch at the end of the drain.
func (h *Host) drain() {
	h.drainQueues()
	h.flushDeliveries()
}

func (h *Host) drainQueues() {
	switch h.Cfg.Mode {
	case DeliverSeparate:
		for h.beQ.Len() > 0 && h.beQ.top().ts < h.barrierBE {
			h.deliver(h.beQ.pop())
		}
		for h.relQ.Len() > 0 && h.relQ.top().ts <= h.barrierC {
			h.deliver(h.relQ.pop())
		}
	case DeliverUnified:
		h.drainMerged()
	case DeliverConflictAware:
		// Tagged traffic is exactly the unified merged stream (the queues
		// hold only tagged entries in this mode); untagged reliable drains
		// from its own queue once the commit barrier covers it, outside
		// the cross-class order.
		h.drainMerged()
		for h.rlxQ.Len() > 0 && h.rlxQ.top().ts <= h.barrierC {
			h.deliverRelaxed(h.rlxQ.pop())
		}
	}
}

// drainMerged delivers the single cross-class total order of DeliverUnified:
// both queues gated on min(barrierBE-1, barrierC), merged on the full
// (ts, src, psn) key.
func (h *Host) drainMerged() {
	eff := h.barrierBE - 1
	if h.barrierC < eff {
		eff = h.barrierC
	}
	for {
		var q *deliveryHeap
		switch {
		case h.beQ.Len() == 0 && h.relQ.Len() == 0:
			return
		case h.beQ.Len() == 0:
			q = &h.relQ
		case h.relQ.Len() == 0:
			q = &h.beQ
		default:
			// Cross-queue tie-break on the full (ts, src, psn) key: when a
			// best-effort and a reliable entry from the same sender share a
			// timestamp, the PSN decides — always preferring one queue here
			// would violate the documented total order.
			if a, b := h.beQ.top(), h.relQ.top(); !pendingLess(b, a) {
				q = &h.beQ
			} else {
				q = &h.relQ
			}
		}
		if q.top().ts > eff {
			return
		}
		h.deliver(q.pop())
	}
}

func (h *Host) deliver(p *pending) {
	if p.reliable {
		if p.ts > h.deliveredC {
			h.deliveredC = p.ts
		}
	} else {
		h.advanceBEFloor(p.ts, p.src)
	}
	if h.Cfg.Mode == DeliverUnified || h.Cfg.Mode == DeliverConflictAware {
		// One merged order: both floors advance together. Under conflict-
		// aware delivery only tagged entries reach this path, so the floors
		// track the tagged order exactly as unified tracks everything.
		h.advanceBEFloor(p.ts, p.src)
		if p.ts > h.deliveredC {
			h.deliveredC = p.ts
		}
	}
	h.Stats.BufferedMsgs--
	h.Stats.BufferedBytes -= int64(p.size)
	h.Stats.MsgsDelivered++
	h.recObs(p)
	h.dispatch(p)
	h.putPending(p)
}

// deliverNow surfaces an untagged best-effort message the moment its
// reassembly completes (DeliverConflictAware fast path): no barrier wait,
// no buffered-stat charge (it was never buffered), and — critically — no
// delivered-floor update, so relaxed traffic can never NAK or reorder the
// tagged total order.
func (h *Host) deliverNow(p *pending) {
	h.Stats.MsgsDelivered++
	h.Stats.RelaxedDeliveries++
	h.recObs(p)
	h.dispatch(p)
	h.putPending(p)
}

// deliverRelaxed surfaces an untagged reliable message once the commit
// barrier covers it; like deliverNow it leaves the total-order floors alone.
func (h *Host) deliverRelaxed(p *pending) {
	h.Stats.BufferedMsgs--
	h.Stats.BufferedBytes -= int64(p.size)
	h.Stats.MsgsDelivered++
	h.Stats.RelaxedDeliveries++
	h.recObs(p)
	h.dispatch(p)
	h.putPending(p)
}

// getPending takes an entry off the host's free list, or allocates one.
func (h *Host) getPending() *pending {
	n := len(h.pendFree)
	if n == 0 {
		return new(pending)
	}
	p := h.pendFree[n-1]
	h.pendFree = h.pendFree[:n-1]
	return p
}

// putPending recycles a delivered entry. dispatch has returned, so neither
// OnDeliver nor the batchQ slice refers to it (both hold Delivery copies);
// it is zeroed so that a stale pointer would read as nothing and the payload
// is not kept reachable. Entries dropped on the failure paths (discardFrom,
// removeBuffered) are left to the collector instead: this is the only
// release point.
func (h *Host) putPending(p *pending) {
	*p = pending{}
	h.pendFree = append(h.pendFree, p)
}

func (h *Host) recObs(p *pending) {
	if p.enqAt > 0 && h.Obs.On() {
		now := h.wire.Now()
		h.Obs.Rec(obs.SpanBarrierWait, now-p.enqAt)
		h.Obs.Rec(obs.SpanE2E, now-p.ts)
	}
}

// dispatch hands a delivery to its process callback, preserving the
// cross-process callback order on this host: anything batched for another
// process flushes before a delivery for this one is surfaced.
func (h *Host) dispatch(p *pending) {
	proc := h.proc(p.dst)
	if proc == nil {
		return
	}
	if len(h.batchQ) > 0 && h.batchDst != p.dst {
		h.flushDeliveries()
	}
	d := Delivery{TS: p.ts, Src: p.src, Dst: p.dst, Data: p.data,
		Reliable: p.reliable, Conflict: p.conflict}
	if proc.OnDeliverBatch != nil {
		h.batchDst = p.dst
		h.batchQ = append(h.batchQ, d)
		return
	}
	if proc.OnDeliver == nil {
		return
	}
	proc.OnDeliver(d)
}

// flushDeliveries hands the accumulated contiguous run to its process's
// OnDeliverBatch. The batch slice is reused afterwards; the no-retention
// rule is documented on OnDeliverBatch.
func (h *Host) flushDeliveries() {
	if len(h.batchQ) == 0 {
		return
	}
	proc := h.proc(h.batchDst)
	h.recvOcc.Add(float64(len(h.batchQ)))
	h.Stats.DeliverBatches++
	if proc != nil && proc.OnDeliverBatch != nil {
		proc.OnDeliverBatch(h.batchQ)
	}
	h.batchQ = h.batchQ[:0]
}

// handleNak reports a best-effort loss (ordering drop) back to the
// application immediately instead of waiting for the send-fail timeout.
func (h *Host) handleNak(pkt *netsim.Packet) {
	c := h.findConn(pkt.Dst, pkt.Src)
	if c == nil || c.work == nil {
		return
	}
	ring := &c.work.unacked[0]
	i := ring.find(pkt.PSN)
	if i < 0 {
		return
	}
	op := ring.slots[i].op
	c.dropInflight(0, i)
	// A NAKed frame fails every live member: the receiver skipped the
	// whole PSN span.
	for m := op; m != nil; m = m.fnext {
		if m.scat.aborted || m.scat.done {
			continue
		}
		h.failMessage(m.scat, int(m.msgIdx))
	}
	h.grantCredits()
	c.settle()
}
