package chaos

import (
	"fmt"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Violation is one failed invariant, named after the checker that found it.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Partition exemption guards: a scattering submitted inside
// [Start-partGuardBefore, End+partGuardAfter) of any partition window is
// exempt from the cross-receiver and atomicity checks — during a partition
// the paper only promises local order for forwarded traffic (§5.2
// Controller Forwarding caveat). Everything else (at-most-once, causality,
// barrier gating, per-receiver sortedness) is enforced unconditionally.
const (
	partGuardBefore = 1 * sim.Millisecond
	partGuardAfter  = 5 * sim.Millisecond / 2
)

// Check validates every invariant against a run's logs and returns all
// violations found (empty = the run upheld the paper's guarantees).
//
// Invariant catalog (see docs/testing.md for the paper citations):
//  1. local-order     — each receiver's log is strictly sorted by (ts, src);
//     per plane under DeliverSeparate, across both planes
//     under DeliverUnified (§2.1, DESIGN deviation #4).
//  2. pairwise-order  — any two receivers deliver their common messages in
//     the same relative order (§2.1 total order).
//  3. causality       — a message timestamped T is delivered only once the
//     receiver's clock passed T (§2.1, §3).
//  4. at-most-once    — no receiver delivers the same scattering member
//     twice (§4.1 dedup + §5.1 commit dedup).
//  5. atomicity       — a reliable scattering from a correct sender is
//     delivered at all of its correct destinations or at
//     none, and in the latter case the sender got a
//     send-failure callback (§5.1/§5.2 restricted
//     failure atomicity).
//  6. barrier-gate    — every delivery was covered by the barrier the
//     receiver had announced at that instant (§4.1).
//  7. discard-floor   — no reliable message from a failed process is
//     delivered beyond its failure timestamp (§5.2
//     Discard).
//  8. wire-barrier    — on every host downlink, no data packet's message
//     timestamp falls below a barrier the link already
//     carried (the §4.1 per-link barrier promise; chip
//     mode only). Catches in-switch stamp/wire-order
//     inversions directly.
//  9. epoch-barrier   — no receiver's announced barrier pair ever
//     regresses across its delivery log; membership
//     epochs (join/drain/switch add) must leave the
//     aggregated minimum monotone.
//  10. join-epoch      — every message a mid-run joined process sent
//     carries a timestamp at or above its effective join
//     epoch, at every receiver (the activation's
//     register-seeding promise).
//  11. join-suffix     — a joined receiver's log agrees with every
//     incumbent on the relative order of their common
//     scatterings: the joiner delivers a suffix of the
//     same total order, never an interleaving of its own.
//  12. drain-silence   — a gracefully drained process delivers nothing
//     after its drain completed.
//  13. drain-no-failure — a graceful drain is a decision, not a failure: no
//     controller failure record may name a drained
//     process unless the fault schedule also crashed it.
//  14. hot-buffer-bound — when the plan caps the hot reorder heap
//     (ReorderHotCap > 0), no host's peak hot occupancy
//     may exceed the cap: overflow must spill to the
//     cold store, never grow the heap (bounded receiver
//     memory).
//  15. conflict-pair-order — under DeliverConflictAware, any two deliveries
//     carrying the same nonzero conflict key appear in
//     (ts, src) order at every receiver, and every pair
//     of receivers agrees on the relative order of their
//     common same-key scatterings (the Generic Multicast
//     contract: declared-conflicting messages keep the
//     total order even though untagged traffic is
//     relaxed). The implementation orders ALL tagged
//     messages mutually — a coarser relation — so this
//     checks the declared relation it subsumes.
func Check(r *Result) []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		if len(out) < 64 { // cap: one broken invariant can fire thousands of times
			out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
		}
	}

	sendAt := make(map[MsgID]sim.Time, len(r.Sends))
	sendRec := make(map[MsgID]*SendRec, len(r.Sends))
	for i := range r.Sends {
		s := &r.Sends[i]
		if s.Refused {
			continue
		}
		if _, ok := sendRec[s.ID]; !ok {
			sendRec[s.ID] = s
			sendAt[s.ID] = s.At
		}
	}
	exempt := func(id MsgID) bool {
		if r.Forwarded[id] {
			// Controller Forwarding relayed (part of) this scattering: the
			// §5.2 caveat applies regardless of which fault severed the path.
			return true
		}
		if len(r.Partitions) == 0 {
			return false
		}
		at, ok := sendAt[id]
		if !ok {
			return true // unknown provenance: don't guess
		}
		for _, w := range r.Partitions {
			if at >= w.Start-partGuardBefore && at < w.End+partGuardAfter {
				return true
			}
		}
		return false
	}

	checkLocalOrder(r, add)
	checkPairwiseOrder(r, exempt, add)
	checkCausalityAndGate(r, add)
	checkAtMostOnce(r, add)
	checkAtomicity(r, sendRec, exempt, add)
	checkDiscardFloor(r, add)
	checkWire(r, exempt, add)
	checkEpochBarriers(r, add)
	checkJoinEpoch(r, add)
	checkJoinSuffix(r, exempt, add)
	checkDrains(r, add)
	checkHotBufferBound(r, add)
	checkConflictPairs(r, exempt, add)
	return out
}

// checkConflictPairs enforces invariant 15: per receiver, the subsequence
// of deliveries sharing one nonzero conflict key is sorted by the global
// (ts, src) key, and any two receivers order their common same-key
// scatterings identically. Forwarded and partition-window scatterings are
// exempt from the cross-receiver half, exactly as in pairwise-order (§5.2
// Controller Forwarding is only locally ordered).
func checkConflictPairs(r *Result, exempt func(MsgID) bool, add func(string, string, ...any)) {
	if r.Plan.Mode != core.DeliverConflictAware {
		return
	}
	subseq := func(log []DeliveryRec) map[uint32][]DeliveryRec {
		m := make(map[uint32][]DeliveryRec)
		for _, d := range log {
			if d.Conflict != 0 {
				m[d.Conflict] = append(m[d.Conflict], d)
			}
		}
		return m
	}
	keyed := make([]map[uint32][]DeliveryRec, len(r.Deliveries))
	for pi, log := range r.Deliveries {
		keyed[pi] = subseq(log)
		for key, sub := range keyed[pi] {
			for i := 1; i < len(sub); i++ {
				if keyLess(sub[i], sub[i-1]) {
					add("conflict-pair-order",
						"receiver %d: conflicting (key=%d) %v/src=%d (id=%v) delivered after %v/src=%d",
						pi, key, sub[i].TS, sub[i].Src, sub[i].ID, sub[i-1].TS, sub[i-1].Src)
				}
			}
		}
	}
	for a := 0; a < len(keyed); a++ {
		for key, sa := range keyed[a] {
			idx := make(map[MsgID]int, len(sa))
			for i, d := range sa {
				idx[d.ID] = i
			}
			for b := a + 1; b < len(keyed); b++ {
				last, lastID := -1, MsgID{}
				for _, d := range keyed[b][key] {
					i, common := idx[d.ID]
					if !common || exempt(d.ID) {
						continue
					}
					if i < last {
						add("conflict-pair-order",
							"receivers %d and %d disagree on key=%d: %v before %v at one, after at the other",
							a, b, key, d.ID, lastID)
						break
					}
					last, lastID = i, d.ID
				}
			}
		}
	}
}

// checkHotBufferBound asserts the bounded-memory contract of hybrid reorder
// buffering: with ReorderHotCap set, the delivery heaps never held more than
// the cap on any host — every overflow went to the cold spill store. The
// core reports the peak via Stats.ReorderHotMax (max over hosts of the
// larger per-plane heap).
func checkHotBufferBound(r *Result, add func(string, string, ...any)) {
	hotCap := r.Plan.ReorderHotCap
	if hotCap <= 0 {
		return
	}
	if r.Stats.ReorderHotMax > int64(hotCap) {
		add("hot-buffer-bound", "peak hot reorder occupancy %d exceeds ReorderHotCap %d",
			r.Stats.ReorderHotMax, hotCap)
	}
}

// checkEpochBarriers asserts every receiver's announced barrier pair is
// non-decreasing along its delivery log. The netsim clamps each node's
// aggregate, but a reconfiguration that seeded a new link's register too
// low — or resurrected a drained one — would surface here as a regression
// of the barrier a host had already announced.
func checkEpochBarriers(r *Result, add func(string, string, ...any)) {
	for pi, log := range r.Deliveries {
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.BarBE < a.BarBE || b.BarC < a.BarC {
				add("epoch-barrier",
					"receiver %d: announced barrier regressed (be %v->%v, c %v->%v) at delivery %v",
					pi, a.BarBE, b.BarBE, a.BarC, b.BarC, b.ID)
			}
		}
	}
}

// checkJoinEpoch asserts the activation promise of every mid-run join:
// the joining host's clock and timestamp floor were forced above the
// effective epoch before its uplink register was admitted, so nothing it
// ever sent may carry a timestamp below that epoch — at any receiver.
func checkJoinEpoch(r *Result, add func(string, string, ...any)) {
	if len(r.Joined) == 0 {
		return
	}
	epoch := make(map[netsim.ProcID]sim.Time)
	for _, ji := range r.Joined {
		for _, pid := range ji.Procs {
			epoch[pid] = ji.TJoin
		}
	}
	for pi, log := range r.Deliveries {
		for _, d := range log {
			if tj, joined := epoch[d.Src]; joined && d.TS < tj {
				add("join-epoch",
					"receiver %d delivered ts=%v from joined proc %d below its join epoch %v (id=%v)",
					pi, d.TS, d.Src, tj, d.ID)
			}
		}
	}
}

// checkJoinSuffix asserts a joined receiver shares the incumbents' total
// order: for every other process, the scatterings delivered at both must
// appear in the same relative order. This is pairwise-order focused on the
// joiners — the property the paper's epoch argument owes a host that was
// not there when the order started.
func checkJoinSuffix(r *Result, exempt func(MsgID) bool, add func(string, string, ...any)) {
	for _, ji := range r.Joined {
		for _, pid := range ji.Procs {
			for _, sj := range classStreams(r.Plan.Mode, r.Deliveries[pid]) {
				idx := make(map[MsgID]int, len(sj))
				for i, d := range sj {
					idx[d.ID] = i
				}
				for other := range r.Deliveries {
					if netsim.ProcID(other) == pid {
						continue
					}
					for _, so := range classStreams(r.Plan.Mode, r.Deliveries[other]) {
						last, lastID := -1, MsgID{}
						for _, d := range so {
							i, common := idx[d.ID]
							if !common || exempt(d.ID) {
								continue
							}
							if i < last {
								add("join-suffix",
									"joined proc %d and incumbent %d disagree: %v before %v at one, after at the other",
									pid, other, d.ID, lastID)
								break
							}
							last, lastID = i, d.ID
						}
					}
				}
			}
		}
	}
}

// checkDrains asserts the two graceful-departure properties: a drained
// process's delivery log is frozen at the instant its drain completed, and
// no controller failure record names it (a drain is a decision, not a
// §5.2 failure) unless the fault schedule independently crashed its host.
func checkDrains(r *Result, add func(string, string, ...any)) {
	if len(r.DrainedLogLen) == 0 {
		return
	}
	for pid, frozen := range r.DrainedLogLen {
		if got := len(r.Deliveries[pid]); got != frozen {
			add("drain-silence",
				"drained proc %d delivered %d messages after its drain completed at %v",
				pid, got-frozen, r.DrainedAt[pid])
		}
	}
	crashedHost := make(map[int]bool)
	for _, f := range r.Plan.Faults {
		if f.Kind == FaultHostCrash {
			crashedHost[f.Host] = true
		}
	}
	pph := r.Plan.ProcsPerHost
	for _, rec := range r.Failures {
		for p := range rec.Procs {
			if _, drained := r.DrainedLogLen[p]; drained && !crashedHost[int(p)/pph] {
				add("drain-no-failure",
					"controller failure record names gracefully drained proc %d (fts=%v)",
					p, rec.Procs[p])
			}
		}
	}
}

// checkWire classifies the run's wire-level barrier-promise suspects. A
// suspect is a genuine violation only for live traffic under normal
// ordering: in-flight packets of failed processes cross the post-Resume
// barrier jump legitimately, aborted (recalled) scatterings may have a
// straggler retransmission below the commit barrier their sender already
// released, and controller-forwarded traffic bypasses the fabric's
// stamping entirely (§5.2).
func checkWire(r *Result, exempt func(MsgID) bool, add func(string, string, ...any)) {
	for _, s := range r.WireSuspects {
		if int(s.Src) < len(r.CorrectProc) && !r.CorrectProc[s.Src] {
			continue
		}
		if exempt(s.ID) || len(r.SendFails[s.ID]) > 0 {
			continue
		}
		plane := "best-effort"
		if s.Reliable {
			plane = "reliable"
		}
		add("wire-barrier", "host %d @%v: %s data ts=%v from proc %d arrived after the link carried barrier %v (id=%v)",
			s.Host, s.At, plane, s.TS, s.Src, s.Barrier, s.ID)
	}
}

// key is the global total-order key: timestamps first, sender ID as the
// tie-break (§2.1). Within one receiver log the pair is unique per
// scattering, since a sender never reuses a timestamp.
func keyLess(a, b DeliveryRec) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Src < b.Src
}

func keyEq(a, b DeliveryRec) bool { return a.TS == b.TS && a.Src == b.Src }

// classStreams splits a log the way the delivery mode defines order: one
// merged stream under DeliverUnified; under DeliverConflictAware one merged
// stream of the tagged (nonzero-key) deliveries — untagged messages opted
// out of the cross-class order and carry no ordering obligation; one stream
// per plane otherwise.
func classStreams(mode core.DeliveryMode, log []DeliveryRec) [][]DeliveryRec {
	switch mode {
	case core.DeliverUnified:
		return [][]DeliveryRec{log}
	case core.DeliverConflictAware:
		var tagged []DeliveryRec
		for _, d := range log {
			if d.Conflict != 0 {
				tagged = append(tagged, d)
			}
		}
		return [][]DeliveryRec{tagged}
	}
	var be, rel []DeliveryRec
	for _, d := range log {
		if d.Reliable {
			rel = append(rel, d)
		} else {
			be = append(be, d)
		}
	}
	return [][]DeliveryRec{be, rel}
}

func checkLocalOrder(r *Result, add func(string, string, ...any)) {
	for pi, log := range r.Deliveries {
		for si, stream := range classStreams(r.Plan.Mode, log) {
			for i := 1; i < len(stream); i++ {
				a, b := stream[i-1], stream[i]
				if keyLess(b, a) || (keyEq(a, b) && a.ID != b.ID) {
					add("local-order",
						"receiver %d stream %d: %v/src=%d (id=%v) delivered after %v/src=%d",
						pi, si, b.TS, b.Src, b.ID, a.TS, a.Src)
				}
			}
		}
	}
}

func checkPairwiseOrder(r *Result, exempt func(MsgID) bool, add func(string, string, ...any)) {
	n := len(r.Deliveries)
	for a := 0; a < n; a++ {
		for _, sa := range classStreams(r.Plan.Mode, r.Deliveries[a]) {
			idx := make(map[MsgID]int, len(sa))
			for i, d := range sa {
				idx[d.ID] = i
			}
			for b := a + 1; b < n; b++ {
				for _, sb := range classStreams(r.Plan.Mode, r.Deliveries[b]) {
					last, lastID := -1, MsgID{}
					for _, d := range sb {
						i, common := idx[d.ID]
						if !common || exempt(d.ID) {
							continue
						}
						if i < last {
							add("pairwise-order",
								"receivers %d and %d disagree: %v before %v at one, after at the other",
								a, b, d.ID, lastID)
							break
						}
						last, lastID = i, d.ID
					}
				}
			}
		}
	}
}

func checkCausalityAndGate(r *Result, add func(string, string, ...any)) {
	unified := r.Plan.Mode == core.DeliverUnified
	ca := r.Plan.Mode == core.DeliverConflictAware
	for pi, log := range r.Deliveries {
		for _, d := range log {
			if ca && d.Conflict == 0 && !d.Reliable {
				// Untagged best-effort under DeliverConflictAware delivers
				// immediately on reassembly — before the barrier covers it,
				// and (under clock skew) possibly before the receiver's clock
				// passes its timestamp. That is the declared relaxation.
				continue
			}
			if d.ClockAt < d.TS {
				add("causality", "receiver %d delivered ts=%v with local clock %v (id=%v)",
					pi, d.TS, d.ClockAt, d.ID)
			}
			switch {
			case ca && d.Conflict == 0:
				// Untagged reliable: gated by the commit barrier alone (the
				// §5.2 recall window), outside the cross-class order.
				if d.TS > d.BarC {
					add("barrier-gate", "receiver %d: relaxed reliable delivery ts=%v above commit barrier %v (id=%v)",
						pi, d.TS, d.BarC, d.ID)
				}
			case unified || ca:
				if d.TS > d.BarBE-1 || d.TS > d.BarC {
					add("barrier-gate", "receiver %d: unified delivery ts=%v above barriers (be=%v c=%v, id=%v)",
						pi, d.TS, d.BarBE, d.BarC, d.ID)
				}
			case d.Reliable:
				if d.TS > d.BarC {
					add("barrier-gate", "receiver %d: reliable delivery ts=%v above commit barrier %v (id=%v)",
						pi, d.TS, d.BarC, d.ID)
				}
			default:
				if d.TS >= d.BarBE {
					add("barrier-gate", "receiver %d: best-effort delivery ts=%v at/above barrier %v (id=%v)",
						pi, d.TS, d.BarBE, d.ID)
				}
			}
		}
	}
}

func checkAtMostOnce(r *Result, add func(string, string, ...any)) {
	for pi, log := range r.Deliveries {
		seen := make(map[MsgID]bool, len(log))
		for _, d := range log {
			if seen[d.ID] {
				add("at-most-once", "receiver %d delivered %v twice", pi, d.ID)
			}
			seen[d.ID] = true
		}
	}
}

func checkAtomicity(r *Result, sends map[MsgID]*SendRec, exempt func(MsgID) bool, add func(string, string, ...any)) {
	delivered := make(map[MsgID]map[netsim.ProcID]bool)
	for pi, log := range r.Deliveries {
		for _, d := range log {
			set := delivered[d.ID]
			if set == nil {
				set = make(map[netsim.ProcID]bool)
				delivered[d.ID] = set
			}
			set[netsim.ProcID(pi)] = true
		}
	}
	for id, s := range sends {
		if !s.Reliable || !r.CorrectProc[s.Src] || exempt(id) {
			continue
		}
		// A destination severed from the sender in the end-of-run fabric is
		// Controller Forwarding territory: delivery may still be pending on
		// the management network when the run ends, and the scattering's
		// atomicity is restricted exactly as during a partition (§5.2).
		severed := false
		for _, dst := range s.Dsts {
			if !r.PathOK[s.Src][dst] {
				severed = true
			}
		}
		if severed {
			continue
		}
		var correct, got []netsim.ProcID
		for _, dst := range s.Dsts {
			if !r.CorrectProc[dst] {
				continue // §5.2 caveat: a failed receiver may miss the scattering
			}
			correct = append(correct, dst)
			if delivered[id][dst] {
				got = append(got, dst)
			}
		}
		if len(correct) == 0 {
			continue
		}
		failedSet := r.SendFails[id]
		switch {
		case len(got) == 0:
			if len(failedSet) == 0 {
				add("atomicity", "reliable %v (src=%d, dsts=%v) neither delivered nor failure-reported",
					id, s.Src, s.Dsts)
			}
		case len(got) < len(correct):
			add("atomicity", "reliable %v partially delivered: %v of correct set %v", id, got, correct)
		default:
			for _, dst := range correct {
				if failedSet[dst] {
					add("atomicity", "reliable %v delivered at %d yet failure-reported for it", id, dst)
				}
			}
		}
	}
}

func checkDiscardFloor(r *Result, add func(string, string, ...any)) {
	fts := make(map[netsim.ProcID]sim.Time)
	for _, rec := range r.Failures {
		for p, t := range rec.Procs {
			if old, ok := fts[p]; !ok || t < old {
				fts[p] = t
			}
		}
	}
	if len(fts) == 0 {
		return
	}
	for pi, log := range r.Deliveries {
		if !r.CorrectProc[netsim.ProcID(pi)] {
			continue // §5.2 Discard binds correct processes only; a failed
			// host may keep delivering co-located traffic to itself
		}
		for _, d := range log {
			if !d.Reliable || r.Forwarded[d.ID] {
				// Controller Forwarding bypasses commit-barrier gating, so
				// the fts derivation ("nothing above the last commit barrier
				// was delivered") does not cover forwarded traffic (§5.2).
				continue
			}
			if t, failed := fts[d.Src]; failed && d.TS > t {
				add("discard-floor", "receiver %d delivered reliable ts=%v from failed proc %d (fts=%v)",
					pi, d.TS, d.Src, t)
			}
		}
	}
}
