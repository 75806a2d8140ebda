package core

import (
	"slices"
	"sort"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// ApplyFailure executes the Discard, Recall and Callback steps of §5.2 on
// this host after the controller broadcast a failure notification: failed
// maps each failed process to its failure timestamp. done is invoked once
// every recall issued by this host has been acknowledged — the host's
// completion message back to the controller.
func (h *Host) ApplyFailure(failed map[netsim.ProcID]sim.Time, done func()) {
	for p, ts := range failed {
		if old, ok := h.failedPeers[p]; !ok || ts < old {
			h.failedPeers[p] = ts
		}
	}

	// Discard: drop received-but-undelivered messages from failed
	// processes with timestamps beyond their failure timestamp.
	h.discardFrom(failed)

	// Recall: abort in-flight scatterings with a failed destination. A
	// previous round's recalls may still be pending (the controller writes
	// off a host that stops answering, and RecoverHost replays every record
	// at once): completions compose rather than clobber, and failWait keeps
	// counting the union — overwriting it would drop the earlier round's
	// completion.
	if prev := h.failDone; prev != nil {
		h.failDone = func() { prev(); done() }
	} else {
		h.failDone = done
	}
	h.recallAffected(failed)

	// Callback: notify every local process, in ID order, of each failure in
	// ID order — an application that acts on the callback makes its order
	// part of the deterministic replay contract, and ranging over the map
	// directly would let Go's map-iteration randomization leak into the
	// event stream on multi-process failures.
	fps := make([]netsim.ProcID, 0, len(failed))
	for fp := range failed {
		fps = append(fps, fp)
	}
	slices.Sort(fps)
	for _, fp := range fps {
		for _, proc := range h.procs {
			if proc != nil && proc.OnProcFail != nil {
				proc.OnProcFail(fp, failed[fp])
			}
		}
	}
	h.checkFailDone()
}

func (h *Host) discardFrom(failed map[netsim.ProcID]sim.Time) {
	drop := func(p *pending) bool {
		if fts, dead := failed[p.src]; dead && p.ts > fts {
			h.Stats.BufferedMsgs--
			h.Stats.BufferedBytes -= int64(p.size)
			return true
		}
		return false
	}
	h.beQ.filter(drop)
	h.relQ.filter(drop)
	h.rlxQ.filter(drop)
	// Partial reassembly state from failed processes is dropped wholesale:
	// no further fragments will arrive.
	h.eachPair(nil, func(rc *rconn) {
		fts, dead := failed[rc.key.src]
		if !dead || rc.work == nil {
			return
		}
		for k := range rc.work.bufs {
			rc.work.bufs[k].dropWhere(h.pool, func(p *netsim.Packet) bool { return p.MsgTS > fts })
		}
		rc.settle()
	})
}

// recallAffected aborts every launched-but-uncommitted reliable scattering
// that includes a failed destination: messages to correct receivers are
// recalled (all-or-nothing delivery, §5.2), messages to the failed
// destination are reported via the send-failure callback, and waiting
// best-effort traffic to failed destinations is failed eagerly.
func (h *Host) recallAffected(failed map[netsim.ProcID]sim.Time) {
	// Selected first, aborted after: an abort with no recall to wait for
	// reaps the outstanding list, which slides its entries in place.
	var hits []*scattering
	for _, s := range h.outstanding {
		if s.done || s.aborted {
			continue
		}
		for i := range s.msgs {
			if _, dead := failed[s.msgs[i].Dst]; dead {
				hits = append(hits, s)
				break
			}
		}
	}
	for _, s := range hits {
		if !s.done && !s.aborted {
			h.abortScattering(s)
		}
	}
	// Credit-blocked scatterings with failed destinations cannot launch.
	remaining := h.waitQ[:0]
	for _, s := range h.waitQ {
		hit := false
		for i := range s.msgs {
			if _, dead := failed[s.msgs[i].Dst]; dead {
				hit = true
				break
			}
		}
		if !hit {
			remaining = append(remaining, s)
			continue
		}
		h.abandon(s)
		h.releaseReservations(s)
		for i := range s.msgs {
			h.failMessage(s, i)
		}
	}
	h.waitQ = remaining
	// Un-ACKed packets addressed to failed processes will never be ACKed:
	// free their window slots so unrelated traffic keeps flowing. The pairs
	// are walked in (src, dst) order and each ring in its PSN order: the
	// failMessage calls below surface OnSendFail to the application, so
	// their order is part of the deterministic replay contract.
	h.eachPair(func(c *conn) {
		w := c.work
		if _, dead := failed[c.key.dst]; !dead || w == nil {
			return
		}
		w.pins++ // OnSendFail runs inside the walk
		for k := range w.unacked {
			w.unacked[k].walk(func(slot int, op *outPkt) {
				c.dropInflight(k, slot)
				// A frame chain carries several scatterings in one slot; each
				// live best-effort member fails individually.
				for m := op; m != nil; m = m.fnext {
					if !m.scat.reliable && !m.scat.aborted {
						h.abandon(m.scat)
						m.scat.failTimer.stop()
						for i := range m.scat.msgs {
							if m.scat.msgs[i].acked < m.scat.msgs[i].frags {
								h.failMessage(m.scat, i)
							}
						}
					}
				}
			})
		}
		w.pins--
		// Parked (MaxRetx-exhausted) packets toward the failed process are
		// equally unACKable; their scatterings were aborted above.
		w.parked = unitRing{}
		c.settle()
	}, nil)
	h.grantCredits()
}

// abortScattering recalls a reliable scattering: correct receivers are told
// to discard it, and once all recall ACKs arrive the scattering stops
// blocking the commit floor.
func (h *Host) abortScattering(s *scattering) {
	h.abortScatteringExcept(s, netsim.ProcID(-1))
}

// abortScatteringExcept is abortScattering with one destination exempted
// from the recall round-trip: the controller resolving an unreachable
// receiver has already recorded its tombstone durably, so sending it a
// recall could only stall for another MaxRetx round.
func (h *Host) abortScatteringExcept(s *scattering, noRecall netsim.ProcID) {
	h.abandon(s)
	h.Stats.Recalled++
	for i := range s.msgs {
		dst := s.msgs[i].Dst
		h.failMessage(s, i)
		if dst == noRecall {
			continue
		}
		if _, dead := h.failedPeers[dst]; dead {
			continue
		}
		rk := recallKey{dst: dst, ts: s.ts}
		if _, exists := h.recalls[rk]; exists {
			continue
		}
		s.recallsPending++
		h.failWait++
		rs := &recallState{scat: s, key: rk}
		rs.timer.init(h, (*recallResend)(rs))
		h.recalls[rk] = rs
		h.sendRecall(s.owner.ID, rk)
		rs.timer.reset(h, h.Cfg.RTO)
	}
	// Drop un-ACKed packets of this scattering to stop retransmission.
	for i := range s.credits {
		s.credits[i].conn.dropScattering(s)
	}
	if s.recallsPending == 0 {
		s.done = true
		h.reapOutstanding()
	}
}

func (h *Host) sendRecall(src netsim.ProcID, rk recallKey) {
	pkt := h.pool.Get()
	pkt.Kind, pkt.Src, pkt.Dst = netsim.KindRecall, src, rk.dst
	pkt.MsgTS, pkt.Size = rk.ts, netsim.BeaconBytes
	h.emit(pkt)
}

// recallResend is the handler of a recall's retransmission timer.
type recallResend recallState

func (r *recallResend) Fire() {
	rs := (*recallState)(r)
	rs.scat.owner.host.resendRecall(rs.key, rs)
}

func (h *Host) resendRecall(rk recallKey, rs *recallState) {
	if h.stopped {
		return
	}
	rs.tries++
	if h.Cfg.MaxRetx > 0 && rs.tries > h.Cfg.MaxRetx {
		// Final report, then clean up as if resolved: leaving the recall
		// registered would hold recallsPending nonzero forever, so the
		// aborting scattering never goes done, reapOutstanding stalls the
		// commit floor, and ApplyFailure's completion never fires. The
		// escalation (durable recall record or forwarding) is the
		// controller's job once OnStuck has been reported.
		h.reportStuck(rs.scat.owner.ID, rk.dst, rk.ts)
		h.finishRecall(rk, rs)
		return
	}
	h.sendRecall(rs.scat.owner.ID, rk)
	rs.timer.reset(h, h.Cfg.RTO)
}

// finishRecall resolves one outstanding recall — acknowledged, controller-
// resolved, or abandoned after MaxRetx — releasing the aborting scattering
// and the failure-completion wait.
func (h *Host) finishRecall(rk recallKey, rs *recallState) {
	rs.timer.stop()
	delete(h.recalls, rk)
	rs.scat.recallsPending--
	if rs.scat.recallsPending == 0 {
		rs.scat.done = true
		h.reapOutstanding()
	}
	h.failWait--
	h.checkFailDone()
}

// handleRecall executes the receiver side of Recall: discard the scattering
// member identified by (sender, timestamp) and acknowledge.
func (h *Host) handleRecall(pkt *netsim.Packet) {
	h.ApplyRecallTombstone(pkt.Src, pkt.MsgTS)
	ack := h.pool.Get()
	ack.Kind, ack.Src, ack.Dst = netsim.KindRecallAck, pkt.Dst, pkt.Src
	ack.MsgTS, ack.Size = pkt.MsgTS, netsim.BeaconBytes
	h.emit(ack)
}

// ApplyRecallTombstone discards the scattering member (sender, ts) without
// acknowledging — used directly by the controller during receiver recovery.
func (h *Host) ApplyRecallTombstone(sender netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: sender, ts: ts}
	if !h.recallTomb[rk] {
		h.recallTomb[rk] = true
		h.removeBuffered(sender, ts)
	}
}

func (h *Host) removeBuffered(src netsim.ProcID, ts sim.Time) {
	drop := func(p *pending) bool {
		if p.src == src && p.ts == ts {
			h.Stats.BufferedMsgs--
			h.Stats.BufferedBytes -= int64(p.size)
			return true
		}
		return false
	}
	h.relQ.filter(drop)
	// Untagged reliable members of a recalled scattering sit in rlxQ under
	// DeliverConflictAware; the recall covers them too (§5.2 atomicity).
	h.rlxQ.filter(drop)
	// Buffered fragments of the recalled message are consumed unseen.
	for _, p := range h.procs {
		if p == nil {
			continue
		}
		if rc := h.findRconn(src, p.ID); rc != nil && rc.work != nil {
			rc.work.bufs[1].dropWhere(h.pool, func(p *netsim.Packet) bool { return p.MsgTS == ts })
			rc.settle()
		}
	}
}

// PendingTo rebuilds the wire packets of every un-ACKed reliable message
// from src to dst — the payload of §5.2's Controller Forwarding when the
// network path between the pair has failed but both remain controller-
// reachable.
func (h *Host) PendingTo(src, dst netsim.ProcID) []*netsim.Packet {
	c := h.findConn(src, dst)
	if c == nil || c.work == nil {
		return nil
	}
	w := c.work
	var out []*netsim.Packet
	// Packets parked after MaxRetx exhaustion are exactly the ones the
	// controller is being asked to forward. buildUnit skips aborted chain
	// members and returns nil for fully aborted chains.
	for _, ring := range []*unitRing{&w.unacked[1], &w.parked} {
		ring.walk(func(_ int, op *outPkt) {
			if pkt := c.buildUnit(h.pool, op); pkt != nil {
				out = append(out, pkt)
			}
		})
	}
	for _, op := range w.sendQ.live() {
		if op.scat.reliable && !op.scat.aborted {
			out = append(out, c.buildPacket(h.pool, op, op.psn))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PSN < out[j].PSN })
	return out
}

// ResolveUnreachable releases the sender of a scattering stuck toward an
// unreachable — failed or drained — destination after the controller has
// durably recorded the recall tombstone (§5.2 Controller Forwarding). If
// the stall had already escalated to an active recall, that recall
// finishes, so a recovered receiver discards consistently; otherwise the
// still-outstanding scattering is aborted here: every other receiver is
// recalled normally, no recall is sent to dst itself, and the sender
// observes the ordinary send-failure callbacks. Without this, a data
// packet that exhausted MaxRetx toward a departed host would park its
// scattering on the commit floor forever.
func (h *Host) ResolveUnreachable(dst netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: dst, ts: ts}
	if rs, ok := h.recalls[rk]; ok {
		h.finishRecall(rk, rs)
		return
	}
	for _, s := range h.outstanding {
		if s.ts != ts || s.done || s.aborted {
			continue
		}
		hit := false
		for i := range s.msgs {
			if s.msgs[i].Dst == dst {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		h.abortScatteringExcept(s, dst)
		return
	}
}

func (h *Host) handleRecallAck(pkt *netsim.Packet) {
	rk := recallKey{dst: pkt.Src, ts: pkt.MsgTS}
	rs, ok := h.recalls[rk]
	if !ok {
		return
	}
	h.finishRecall(rk, rs)
}

func (h *Host) checkFailDone() {
	if h.failWait == 0 && h.failDone != nil {
		done := h.failDone
		h.failDone = nil
		done()
	}
}
