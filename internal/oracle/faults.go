package oracle

import (
	"fmt"
	"slices"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Drain is one graceful departure: the process's log length at the instant
// its drain completed, that instant, and whether the run also crashed its
// host (only then may a failure record name it).
type Drain struct {
	LogLen  int
	At      sim.Time
	Crashed bool
}

// WireSuspect is a §4.1 barrier-promise breach seen on a host downlink: a
// data packet whose message timestamp lies below a barrier the link had
// already carried. Check classifies suspects: traffic of failed, aborted or
// exempt scatterings crosses a barrier jump legitimately; anything else
// means a switch let a later-stamped packet overtake an earlier one (DESIGN
// deviation #8).
type WireSuspect struct {
	Host     int
	Src      netsim.ProcID
	ID       ID
	TS       sim.Time
	Barrier  sim.Time
	Reliable bool
	At       sim.Time
}

// maxWire caps Log.Wire: a broken switch breaches on nearly every packet.
const maxWire = 256

// WireProbe records the wire suspects of every host downlink into a log,
// keeping each host's running best-effort and commit barrier maxima. Only
// the chip incarnation rewrites data barriers in flight, so only a chip-mode
// fabric makes the per-packet registers meaningful to probe.
type WireProbe struct {
	log         *Log
	maxBE, maxC []sim.Time
}

// NewWireProbe returns a probe appending to l.Wire.
func NewWireProbe(l *Log) *WireProbe { return &WireProbe{log: l} }

// Observe checks one packet arriving at host h at time at against the
// barriers h's downlink already carried, then raises them to its own.
func (w *WireProbe) Observe(h int, at sim.Time, pkt *netsim.Packet) {
	for len(w.maxBE) <= h {
		w.maxBE, w.maxC = append(w.maxBE, 0), append(w.maxC, 0)
	}
	if pkt.Kind == netsim.KindData && len(w.log.Wire) < maxWire {
		bar := w.maxBE[h]
		if pkt.Reliable {
			bar = w.maxC[h]
		}
		if pkt.MsgTS < bar {
			id, _ := pkt.Payload.(ID)
			w.log.Wire = append(w.log.Wire, WireSuspect{Host: h, Src: pkt.Src, ID: id, TS: pkt.MsgTS,
				Barrier: bar, Reliable: pkt.Reliable, At: at})
		}
	}
	w.maxBE[h] = max(w.maxBE[h], pkt.BarrierBE)
	w.maxC[h] = max(w.maxC[h], pkt.BarrierC)
}

// Fail records one failure record's processes and failure timestamps,
// keeping each process's earliest across records.
func (l *Log) Fail(procs map[netsim.ProcID]sim.Time) {
	if l.Failed == nil {
		l.Failed = make(map[netsim.ProcID]sim.Time)
	}
	for p, t := range procs {
		if old, ok := l.Failed[p]; !ok || t < old {
			l.Failed[p] = t
		}
	}
}

// sorted returns a map's processes in ascending order, so reports walk
// them alike on every check.
func sorted[V any](m map[netsim.ProcID]V) []netsim.ProcID {
	ps := make([]netsim.ProcID, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	slices.Sort(ps)
	return ps
}

func (c *checker) logLen(p netsim.ProcID) int {
	if int(p) < len(c.Deliveries) {
		return len(c.Deliveries[p])
	}
	return 0
}

// discardFloor checks invariant 7 at every correct receiver (§5.2 Discard
// binds correct processes only; a failed host may keep delivering
// co-located traffic to itself). Only Forwarded is exempt: Controller
// Forwarding bypasses commit-barrier gating, so the fts derivation ("nothing
// above the last commit barrier was delivered") does not cover it. A send
// inside a partition window is not.
func (c *checker) discardFloor() {
	if len(c.Failed) == 0 {
		return
	}
	for pi, log := range c.Deliveries {
		if !c.correct(netsim.ProcID(pi)) {
			continue
		}
		for _, d := range log {
			t, failed := c.Failed[d.Src]
			if !failed || !d.Reliable || c.Forwarded[d.ID] || d.TS <= t {
				continue
			}
			// On an annotated log, the receiver's commit barrier at
			// delivery says which side broke: a barrier above fts covered
			// a timestamp the failed sender never committed.
			barrier := ""
			if c.Annotated {
				barrier = fmt.Sprintf(" under commit barrier %v", d.BarC)
			}
			c.add("discard-floor", "receiver %d delivered reliable ts=%v from failed proc %d (fts=%v)%s",
				pi, d.TS, d.Src, t, barrier)
		}
	}
}

// wire checks invariant 8 on the probe's suspects. A suspect is a violation
// only for live traffic under normal ordering: in-flight packets of failed
// processes cross the post-Resume barrier jump legitimately, an aborted
// scattering may leave a straggler retransmission below the commit barrier
// its sender already released, and exempt traffic may have been forwarded
// around the fabric's stamping (§5.2).
func (c *checker) wire() {
	for _, s := range c.Wire {
		if !c.correct(s.Src) || c.Exempt[s.ID] || len(c.SendFails[s.ID]) > 0 {
			continue
		}
		plane := "best-effort"
		if s.Reliable {
			plane = "reliable"
		}
		c.add("wire-barrier", "host %d @%v: %s data ts=%v from proc %d arrived after the link carried barrier %v (id=%v)",
			s.Host, s.At, plane, s.TS, s.Src, s.Barrier, s.ID)
	}
}

// epochBarrier checks invariant 9: no receiver's announced barriers regress
// along its log, as they would if a reconfiguration seeded a new link's
// register too low or resurrected a drained one.
func (c *checker) epochBarrier() {
	for pi, log := range c.Deliveries {
		for i := 1; i < len(log); i++ {
			if a, b := log[i-1], log[i]; b.BarBE < a.BarBE || b.BarC < a.BarC {
				c.add("epoch-barrier", "receiver %d: announced barrier regressed (be %v->%v, c %v->%v) at delivery %v",
					pi, a.BarBE, b.BarBE, a.BarC, b.BarC, b.ID)
			}
		}
	}
}

// joins checks invariants 10 and 11. A joined host's clock and timestamp
// floor are forced above its epoch before its uplink register is admitted
// (core.Host.SetFloor), so everything it sends or delivers lies above the
// epoch, and it cannot have failed before it joined. And it delivers a
// suffix of the incumbents' order: it agrees with every other receiver on
// their common scatterings.
func (c *checker) joins() {
	for pi, log := range c.Deliveries {
		epoch, joined := c.Joined[netsim.ProcID(pi)]
		for _, d := range log {
			if tj, from := c.Joined[d.Src]; from && d.TS <= tj {
				c.add("join-epoch", "receiver %d delivered ts=%v from joined proc %d at or below its join epoch %v (id=%v)",
					pi, d.TS, d.Src, tj, d.ID)
			} else if joined && d.TS <= epoch {
				c.add("join-epoch", "joined receiver %d delivered ts=%v at or below its join epoch %v (id=%v)",
					pi, d.TS, epoch, d.ID)
			}
		}
	}
	for _, p := range sorted(c.Joined) {
		if fts, failed := c.Failed[p]; failed && fts < c.Joined[p] {
			c.add("join-epoch", "joined proc %d failed at fts=%v, below its join epoch %v", p, fts, c.Joined[p])
		}
		for other := range c.Deliveries {
			if int(p) >= len(c.Deliveries) || other == int(p) {
				continue
			}
			if x, y, found := c.Disagreement(int(p), other); found {
				c.add("join-suffix", "joined proc %d and incumbent %d disagree: %v before %v at one, after at the other",
					p, other, x, y)
			}
		}
	}
}

// drains checks invariants 12 and 13: a drained process's log is frozen at
// the instant its drain completed, and no failure record names it (a drain
// is a decision, not a §5.2 failure) unless its host also crashed.
func (c *checker) drains() {
	for _, p := range sorted(c.Drained) {
		d := c.Drained[p]
		if got := c.logLen(p); got != d.LogLen {
			c.add("drain-silence", "drained proc %d delivered %d messages after its drain completed at %v",
				p, got-d.LogLen, d.At)
		}
		if fts, failed := c.Failed[p]; failed && !d.Crashed {
			c.add("drain-no-failure", "a failure record names gracefully drained proc %d (fts=%v)", p, fts)
		}
	}
}
