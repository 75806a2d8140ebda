package chaos

import (
	"fmt"
	"strings"

	"onepipe/internal/oracle"
)

// Minimize greedily shrinks a failing plan's fault schedule: each fault is
// tentatively removed and stays removed if the plan still fails any
// invariant. Because plans are deterministic, every candidate is a faithful
// replay; the result is a locally-minimal schedule (removing any single
// remaining fault makes the failure vanish). A plan whose failure needs no
// faults at all — a config-level bug, e.g. a broken switch pipeline —
// minimizes to an empty schedule. Returns the minimized plan, the
// violations it still produces, and the number of verification runs spent.
func Minimize(p Plan) (Plan, []oracle.Violation, int) {
	runs := 0
	vios := oracle.Check(&Run(p).Log)
	runs++
	if len(vios) == 0 {
		return p, nil, runs
	}
	faults := p.Faults
	for i := 0; i < len(faults); {
		cand := p
		cand.Faults = make([]Fault, 0, len(faults)-1)
		cand.Faults = append(cand.Faults, faults[:i]...)
		cand.Faults = append(cand.Faults, faults[i+1:]...)
		cv := oracle.Check(&Run(cand).Log)
		runs++
		if len(cv) > 0 {
			faults, vios = cand.Faults, cv
		} else {
			i++
		}
	}
	p.Faults = faults
	return p, vios, runs
}

// Report renders a replayable failure report: the seed, the violations, the
// minimized fault schedule, and the exact command that reproduces the run.
func Report(p Plan, vios []oracle.Violation, min Plan, minVios []oracle.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed %d violated %d invariant(s)\n", p.Seed, len(vios))
	fmt.Fprintf(&b, "  plan: %s\n", p.String())
	for _, v := range vios {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	fmt.Fprintf(&b, "  minimized fault schedule (%d of %d faults):\n", len(min.Faults), len(p.Faults))
	if len(min.Faults) == 0 {
		fmt.Fprintf(&b, "    (empty — failure reproduces with no injected faults; config-level bug)\n")
	}
	for _, f := range min.Faults {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	for _, v := range minVios {
		fmt.Fprintf(&b, "  minimized still fails: %s\n", v)
	}
	fmt.Fprintf(&b, "  replay: go test ./internal/chaos -run TestChaosReplay -chaos.seed=%d -v\n", p.Seed)
	return b.String()
}
