// Package oracle checks a delivery log against 1Pipe's delivery contract,
// whatever substrate produced it: the chaos harness on netsim, core's
// property tests, the reconfiguration and controller harnesses, the udpnet
// star (over sockets and in memory) and the public API record into a Log
// and call Check. The invariants, numbered as in the catalog of
// docs/testing.md (which cites the paper; number 14 is retired):
//
//  1. local-order: each receiver delivers each ordered stream strictly by
//     (ts, src). The Mode says which streams are ordered.
//  2. pairwise-order: any two receivers order their common scatterings alike.
//  3. causality: nothing is delivered before the receiver's clock passed its
//     timestamp.
//  4. at-most-once: nothing is delivered twice; with it, integrity: nothing
//     is delivered that was not sent to that receiver, from that sender, on
//     that plane, with that conflict key.
//  5. atomicity: a correct sender's reliable scattering reaches all of its
//     correct destinations, or none and the sender is told.
//  6. barrier-gate: every delivery was covered by the barrier the receiver
//     had announced at that instant.
//  7. discard-floor: no correct receiver delivers a reliable message from a
//     failed process above its failure timestamp.
//  8. wire-barrier: no data packet reaches a host below a barrier its
//     downlink already carried (recorded by a WireProbe).
//  9. epoch-barrier: no receiver's announced barriers regress.
//  10. join-epoch: everything a joined process sends or delivers lies above
//     its join epoch, and it fails no earlier than that epoch.
//  11. join-suffix: a joined receiver agrees with every other on their
//     common scatterings.
//  12. drain-silence: a drained process delivers nothing after its drain.
//  13. drain-no-failure: no failure record names a drained process whose
//     host did not also crash.
//  15. conflict-pair-order: under ConflictAware, scatterings sharing a
//     conflict key keep (ts, src) order at every receiver and across
//     receivers (the Generic Multicast contract). The implementation orders
//     all tagged messages mutually, a coarser relation that 1 and 2 check,
//     so this checks the declared relation it subsumes.
//
// Causality, barrier-gate and epoch-barrier need each delivery's clock and
// barriers, so they run on an Annotated log only. 7-13 bind what the caller
// recorded of the run's faults and membership: Failed, Forwarded, Wire,
// Joined and Drained.
package oracle

import (
	"fmt"
	"slices"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Mode is the delivery mode the log was produced under, numbered as
// core.DeliveryMode numbers it.
type Mode uint8

const (
	// Separate orders each plane (best-effort, reliable) on its own.
	Separate Mode = iota
	// Unified orders both planes as one stream.
	Unified
	// ConflictAware orders the conflict-tagged messages as one stream;
	// untagged ones owe no cross-message order.
	ConflictAware
)

// ID identifies one scattering across a run: the sending process plus a
// per-process sequence number.
type ID struct {
	Src netsim.ProcID
	Seq int32
}

// Delivery is one entry of a receiver's log, with the receiver-local state
// causality and barrier-gate read: its clock and its announced barriers at
// the instant of delivery.
type Delivery struct {
	TS       sim.Time
	Src      netsim.ProcID
	ID       ID
	Reliable bool
	ClockAt  sim.Time
	BarBE    sim.Time
	BarC     sim.Time
	Conflict uint32
}

// Send is one submitted scattering.
type Send struct {
	ID       ID
	Src      netsim.ProcID
	Dsts     []netsim.ProcID
	Reliable bool
	// At is the sender's clock at submission, for callers that place the
	// scattering relative to fault windows.
	At sim.Time
	// Refused is set when the send API returned an error; a refused send
	// carries no delivery obligation.
	Refused bool
	// Conflict is the conflict key the scattering was tagged with.
	Conflict uint32
}

// Log is everything the oracle checks.
type Log struct {
	Mode Mode
	// Annotated says every delivery carries ClockAt, BarBE and BarC, so
	// causality and barrier-gate are checked.
	Annotated bool
	// Sends lists every scattering submitted, in submission order.
	Sends []Send
	// Deliveries is each receiver's log, indexed by process.
	Deliveries [][]Delivery
	// SendFails collects the scattering members reported through the
	// send-failure callback, keyed by scattering and destination.
	SendFails map[ID]map[netsim.ProcID]bool
	// Correct marks the processes that neither failed nor departed; nil
	// means every process is correct.
	Correct []bool
	// PathOK[a][b], when set, says whether a fabric path from process a to
	// process b survived the run. A reliable scattering toward a severed
	// destination may still be pending on the controller's management
	// network, so its atomicity is restricted as in a partition (§5.2).
	PathOK [][]bool
	// Exempt marks the scatterings whose cross-receiver order and
	// atomicity are not owed: forwarded by the controller, or sent inside a
	// partition window (§5.2). The caller computes it; every check of a
	// single receiver's log still binds them, and so does the discard floor.
	Exempt map[ID]bool
	// Forwarded marks the scatterings the controller relayed (§5.2
	// Controller Forwarding); the discard floor does not bind them.
	Forwarded map[ID]bool
	// Failed maps each failed process to its failure timestamp, the
	// earliest any failure record gave it (see Fail).
	Failed map[netsim.ProcID]sim.Time
	// Wire lists the barrier-promise suspects a WireProbe saw.
	Wire []WireSuspect
	// Joined maps each process that joined mid-run to its effective join
	// epoch.
	Joined map[netsim.ProcID]sim.Time
	// Drained records each process that departed gracefully.
	Drained map[netsim.ProcID]Drain
}

// TotalDeliveries counts delivered messages across all receivers.
func (l *Log) TotalDeliveries() int {
	n := 0
	for _, log := range l.Deliveries {
		n += len(log)
	}
	return n
}

// Disagreement returns two scatterings that receivers a and b both deliver
// in one ordered stream but in opposite orders (x before y at a, after it
// at b), skipping exempt ones; found is false when they agree.
func (l *Log) Disagreement(a, b int) (x, y ID, found bool) {
	sa, sb := streams(l.Mode, l.Deliveries[a]), streams(l.Mode, l.Deliveries[b])
	if x, y, found = disagreement(sa[0], sb[0], l.Exempt); !found {
		x, y, found = disagreement(sa[1], sb[1], l.Exempt)
	}
	return x, y, found
}

// Violation is one failed invariant, named after the check that found it.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// MaxViolations caps a report: one broken invariant can fire thousands of
// times.
const MaxViolations = 64

// Check validates invariants 1-13 and 15 and returns the violations found,
// at most MaxViolations of them (none: the log upholds the contract). The
// walk is in receiver, submission and key order, so the same log always
// gives the same report.
func Check(l *Log) []Violation {
	c := &checker{Log: l, sends: make(map[ID]*Send, len(l.Sends)), delivered: make(map[member]bool)}
	for i := range l.Sends {
		if s := &l.Sends[i]; !s.Refused && c.sends[s.ID] == nil {
			c.sends[s.ID] = s
		}
	}
	ss := make([][][]Delivery, len(l.Deliveries))
	for pi, log := range l.Deliveries {
		ss[pi] = streams(l.Mode, log)
	}
	c.order("local-order", "pairwise-order", ss)
	if l.Annotated {
		c.causalityAndGate()
	}
	c.atMostOnce()
	c.atomicity()
	if l.Mode == ConflictAware {
		c.order("conflict-pair-order", "conflict-pair-order", c.byKey())
	}
	c.discardFloor()
	c.wire()
	if l.Annotated {
		c.epochBarrier()
	}
	c.joins()
	c.drains()
	return c.out
}

type member struct {
	id  ID
	rcv netsim.ProcID
}

type checker struct {
	*Log
	sends     map[ID]*Send // first accepted send of each scattering
	delivered map[member]bool
	out       []Violation
}

func (c *checker) add(inv, format string, args ...any) {
	if len(c.out) < MaxViolations {
		c.out = append(c.out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) correct(p netsim.ProcID) bool {
	return c.Correct == nil || int(p) < len(c.Correct) && c.Correct[p]
}

// streams splits a log into the streams the delivery mode orders: the
// best-effort and the reliable plane under Separate; one merged stream
// under Unified, and under ConflictAware of the tagged deliveries only —
// untagged messages opted out of the cross-class order.
func streams(mode Mode, log []Delivery) [][]Delivery {
	ss := make([][]Delivery, 2)
	for _, d := range log {
		switch {
		case mode == ConflictAware && d.Conflict == 0:
		case mode == Separate && d.Reliable:
			ss[1] = append(ss[1], d)
		default:
			ss[0] = append(ss[0], d)
		}
	}
	return ss
}

// byKey splits every receiver's log into one stream per conflict key, the
// keys in ascending order.
func (c *checker) byKey() [][][]Delivery {
	var keys []uint32
	for _, log := range c.Deliveries {
		for _, d := range log {
			if d.Conflict != 0 {
				keys = append(keys, d.Conflict)
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	ss := make([][][]Delivery, len(c.Deliveries))
	for pi, log := range c.Deliveries {
		ss[pi] = make([][]Delivery, len(keys))
		for _, d := range log {
			if k, tagged := slices.BinarySearch(keys, d.Conflict); tagged {
				ss[pi][k] = append(ss[pi][k], d)
			}
		}
	}
	return ss
}

// inverted reports whether b, delivered right after a, breaks the global
// (ts, src) key (§2.1). A sender never reuses a timestamp, so two distinct
// scatterings on one key are inverted too.
func inverted(a, b Delivery) bool {
	if a.TS != b.TS {
		return b.TS < a.TS
	}
	return b.Src < a.Src || b.Src == a.Src && a.ID != b.ID
}

// disagreement is the one agreement check between two logs: it walks b and
// maps every scattering it shares with a, and that is not exempt, to its
// position in a. Those positions rise exactly when a and b order their
// common scatterings alike; at the first descent, x is the scattering
// reached and y the one before it in b.
func disagreement(a, b []Delivery, exempt map[ID]bool) (x, y ID, found bool) {
	idx := make(map[ID]int, len(a))
	for i, d := range a {
		idx[d.ID] = i
	}
	last, lastID := -1, ID{}
	for _, d := range b {
		i, common := idx[d.ID]
		if !common || exempt[d.ID] {
			continue
		}
		if i < last {
			return d.ID, lastID, true
		}
		last, lastID = i, d.ID
	}
	return ID{}, ID{}, false
}

// order checks streams ss, where ss[pi][si] is receiver pi's stream si:
// each must be sorted by the global key (reported as local), and every two
// receivers must agree on each stream's common scatterings (as pairwise).
func (c *checker) order(local, pairwise string, ss [][][]Delivery) {
	for pi := range ss {
		for si, s := range ss[pi] {
			for i := 1; i < len(s); i++ {
				if a, b := s[i-1], s[i]; inverted(a, b) {
					c.add(local, "receiver %d stream %d: %v/src=%d (id=%v) delivered after %v/src=%d",
						pi, si, b.TS, b.Src, b.ID, a.TS, a.Src)
				}
			}
		}
	}
	for a := range ss {
		for b := a + 1; b < len(ss); b++ {
			for si := range ss[a] {
				if x, y, found := disagreement(ss[a][si], ss[b][si], c.Exempt); found {
					c.add(pairwise, "receivers %d and %d disagree in stream %d: %v before %v at one, after at the other",
						a, b, si, x, y)
				}
			}
		}
	}
}

func (c *checker) causalityAndGate() {
	for pi, log := range c.Deliveries {
		for _, d := range log {
			if c.Mode == ConflictAware && d.Conflict == 0 && !d.Reliable {
				// Untagged best-effort under ConflictAware delivers
				// immediately on reassembly — before the barrier covers it,
				// and (under clock skew) possibly before the receiver's clock
				// passes its timestamp. That is the declared relaxation.
				continue
			}
			if d.ClockAt < d.TS {
				c.add("causality", "receiver %d delivered ts=%v with local clock %v (id=%v)",
					pi, d.TS, d.ClockAt, d.ID)
			}
			switch {
			case c.Mode == ConflictAware && d.Conflict == 0:
				// Untagged reliable: gated by the commit barrier alone (the
				// §5.2 recall window), outside the cross-class order.
				if d.TS > d.BarC {
					c.add("barrier-gate", "receiver %d: relaxed reliable delivery ts=%v above commit barrier %v (id=%v)",
						pi, d.TS, d.BarC, d.ID)
				}
			case c.Mode != Separate:
				if d.TS > d.BarBE-1 || d.TS > d.BarC {
					c.add("barrier-gate", "receiver %d: unified delivery ts=%v above barriers (be=%v c=%v, id=%v)",
						pi, d.TS, d.BarBE, d.BarC, d.ID)
				}
			case d.Reliable:
				if d.TS > d.BarC {
					c.add("barrier-gate", "receiver %d: reliable delivery ts=%v above commit barrier %v (id=%v)",
						pi, d.TS, d.BarC, d.ID)
				}
			default:
				if d.TS >= d.BarBE {
					c.add("barrier-gate", "receiver %d: best-effort delivery ts=%v at/above barrier %v (id=%v)",
						pi, d.TS, d.BarBE, d.ID)
				}
			}
		}
	}
}

func (c *checker) atMostOnce() {
	for pi, log := range c.Deliveries {
		rcv := netsim.ProcID(pi)
		for _, d := range log {
			m := member{d.ID, rcv}
			if c.delivered[m] {
				c.add("at-most-once", "receiver %d delivered %v twice", pi, d.ID)
			}
			c.delivered[m] = true
			if s := c.sends[d.ID]; s == nil || !slices.Contains(s.Dsts, rcv) ||
				s.Src != d.Src || s.Reliable != d.Reliable || s.Conflict != d.Conflict {
				c.add("integrity", "receiver %d delivered %v (src=%d reliable=%v key=%d), which was not sent to it",
					pi, d.ID, d.Src, d.Reliable, d.Conflict)
			}
		}
	}
}

func (c *checker) atomicity() {
	for i := range c.Sends {
		s := &c.Sends[i]
		if c.sends[s.ID] != s || !s.Reliable || !c.correct(s.Src) || c.Exempt[s.ID] {
			continue
		}
		// §5.2 caveats: a failed receiver may miss the scattering, and a
		// severed one (see PathOK) restricts it as a partition does.
		var correct, got []netsim.ProcID
		severed := false
		for _, dst := range s.Dsts {
			severed = severed || c.PathOK != nil && !c.PathOK[s.Src][dst]
			if c.correct(dst) {
				correct = append(correct, dst)
				if c.delivered[member{s.ID, dst}] {
					got = append(got, dst)
				}
			}
		}
		if severed || len(correct) == 0 {
			continue
		}
		failedSet := c.SendFails[s.ID]
		switch {
		case len(got) == 0:
			if len(failedSet) == 0 {
				c.add("atomicity", "reliable %v (src=%d, dsts=%v) neither delivered nor failure-reported",
					s.ID, s.Src, s.Dsts)
			}
		case len(got) < len(correct):
			c.add("atomicity", "reliable %v partially delivered: %v of correct set %v", s.ID, got, correct)
		default:
			for _, dst := range correct {
				if failedSet[dst] {
					c.add("atomicity", "reliable %v delivered at %d yet failure-reported for it", s.ID, dst)
				}
			}
		}
	}
}
