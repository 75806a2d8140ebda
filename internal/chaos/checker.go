package chaos

import (
	"fmt"
	"maps"
	"slices"

	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
)

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

// exempt computes the oracle's exempt set: every scattering the controller
// forwarded (the §5.2 caveat holds whichever fault severed the path), and
// every one submitted inside a partition window.
func exempt(r *Result) map[oracle.ID]bool {
	ex := maps.Clone(r.Forwarded)
	for _, s := range r.Sends {
		for _, w := range r.Partitions {
			if !s.Refused && s.At >= w.Start-partGuardBefore && s.At < w.End+partGuardAfter {
				ex[s.ID] = true
			}
		}
	}
	return ex
}

// Check validates every invariant against a run's logs and returns all
// violations found (empty = the run upheld the paper's guarantees), at most
// oracle.MaxViolations of them, in the same order on every replay. The
// oracle checks invariants 1-6 and 15; the rest need what only a chaos run
// records (docs/testing.md has the catalog and the paper's sections):
//
//  7. discard-floor: no reliable message from a failed process is delivered
//     beyond its failure timestamp.
//  8. wire-barrier: no data packet reaches a host below a barrier its
//     downlink already carried (chip mode only).
//  9. epoch-barrier: no receiver's announced barriers regress.
//  10. join-epoch: a joined process's messages carry timestamps at or above
//     its join epoch.
//  11. join-suffix: a joined receiver agrees with every incumbent on their
//     common scatterings.
//  12. drain-silence: a drained process delivers nothing after its drain.
//  13. drain-no-failure: no failure record names a drained process the
//     schedule did not also crash.
//  14. hot-buffer-bound: with ReorderHotCap set, no host's hot reorder heap
//     outgrows the cap.
func Check(r *Result) []oracle.Violation {
	out := oracle.Check(&r.Log)
	add := func(inv, format string, args ...any) {
		if len(out) < oracle.MaxViolations {
			out = append(out, oracle.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
		}
	}
	checkDiscardFloor(r, add)
	checkWire(r, add)
	checkEpochBarriers(r, add)
	checkJoinEpoch(r, add)
	checkJoinSuffix(r, add)
	checkDrains(r, add)
	checkHotBufferBound(r, add)
	return out
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
func checkJoinSuffix(r *Result, add func(string, string, ...any)) {
	for _, ji := range r.Joined {
		for _, pid := range ji.Procs {
			for other := range r.Deliveries {
				if other == int(pid) {
					continue
				}
				if x, y, found := r.Disagreement(int(pid), other); found {
					add("join-suffix",
						"joined proc %d and incumbent %d disagree: %v before %v at one, after at the other",
						pid, other, x, y)
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
	drained := make([]netsim.ProcID, 0, len(r.DrainedLogLen))
	for pid := range r.DrainedLogLen {
		drained = append(drained, pid)
	}
	slices.Sort(drained)
	for _, pid := range drained {
		if got, frozen := len(r.Deliveries[pid]), r.DrainedLogLen[pid]; got != frozen {
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
		for _, p := range drained {
			if fts, named := rec.Procs[p]; named && !crashedHost[int(p)/pph] {
				add("drain-no-failure",
					"controller failure record names gracefully drained proc %d (fts=%v)", p, fts)
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
func checkWire(r *Result, add func(string, string, ...any)) {
	for _, s := range r.WireSuspects {
		if int(s.Src) < len(r.Correct) && !r.Correct[s.Src] {
			continue
		}
		if r.Exempt[s.ID] || len(r.SendFails[s.ID]) > 0 {
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
		if !r.Correct[pi] {
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
