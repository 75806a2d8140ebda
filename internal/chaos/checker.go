package chaos

import (
	"fmt"
	"maps"

	"onepipe/internal/oracle"
	"onepipe/internal/sim"
)

// Partition exemption guards: a scattering submitted inside
// [Start-partGuardBefore, End+partGuardAfter) of any partition window is
// exempt from the cross-receiver and atomicity checks — during a partition
// the paper only promises local order for forwarded traffic (§5.2
// Controller Forwarding caveat). Everything else (at-most-once, causality,
// barrier gating, per-receiver sortedness, the discard floor) is enforced
// unconditionally.
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
// oracle checks invariants 1-13 and 15 (docs/testing.md has the catalog and
// the paper's sections); chaos adds the one that reads core's stats:
//
//  14. hot-buffer-bound: with ReorderHotCap set, no host's hot reorder heap
//     outgrows the cap — every overflow went to the cold spill store. The
//     core reports the peak as Stats.ReorderHotMax (max over hosts of the
//     larger per-plane heap).
func Check(r *Result) []oracle.Violation {
	out := oracle.Check(&r.Log)
	if hotCap := r.Plan.ReorderHotCap; hotCap > 0 && r.Stats.ReorderHotMax > int64(hotCap) && len(out) < oracle.MaxViolations {
		out = append(out, oracle.Violation{Invariant: "hot-buffer-bound",
			Detail: fmt.Sprintf("peak hot reorder occupancy %d exceeds ReorderHotCap %d", r.Stats.ReorderHotMax, hotCap)})
	}
	return out
}
