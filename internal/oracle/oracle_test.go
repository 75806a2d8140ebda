package oracle

import (
	"strings"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// cleanLog is a hand-built annotated log that upholds the contract on
// three processes: a, reliable (10, src 0) to 1 and 2; b, best-effort
// (10, src 2) to 0 and 1, tying a on ts; c, reliable (20, src 0) to 1 and
// 2. a and c carry conflict key 7.
func cleanLog(mode Mode) *Log {
	l := &Log{Mode: mode, Annotated: true, Deliveries: make([][]Delivery, 3)}
	send := func(src netsim.ProcID, seq int32, ts sim.Time, reliable bool, key uint32, dsts ...netsim.ProcID) {
		id := ID{src, seq}
		l.Sends = append(l.Sends, Send{ID: id, Src: src, Dsts: dsts, Reliable: reliable, Conflict: key})
		for _, dst := range dsts {
			l.Deliveries[dst] = append(l.Deliveries[dst], Delivery{TS: ts, Src: src, ID: id, Reliable: reliable,
				Conflict: key, ClockAt: ts + 5, BarBE: ts + 5, BarC: ts + 5})
		}
	}
	send(0, 0, 10, true, 7, 1, 2)
	send(2, 0, 10, false, 0, 0, 1)
	send(0, 1, 20, true, 7, 1, 2)
	return l
}

// TestNegativeControls corrupts the clean log one way per case and requires
// Check to name the broken invariant, or, where the corruption is one the
// contract allows, not to.
func TestNegativeControls(t *testing.T) {
	a, c := ID{0, 0}, ID{0, 1}
	swap := func(log []Delivery) { log[0], log[1] = log[1], log[0] }
	// Receiver 2 delivers a at ts 30 after c: sorted there, but receiver 1
	// delivers a first.
	disagree := func(l *Log) { l.Deliveries[2][0].TS = 30; swap(l.Deliveries[2]) }
	// Proc 0 fails at 15, below c's ts 20, yet receivers 1 and 2 deliver c.
	failBelowC := func(l *Log) { l.Correct = []bool{false, true, true}; l.Fail(map[netsim.ProcID]sim.Time{0: 15}) }
	// Receiver 2 drains after its last delivery; a failure record names it.
	drain2 := func(l *Log, crashed bool) {
		l.Drained = map[netsim.ProcID]Drain{2: {LogLen: 2, At: 30, Crashed: crashed}}
		l.Fail(map[netsim.ProcID]sim.Time{2: 40})
	}
	// Host 1's downlink carries barrier 12, then b's data packet at ts 10.
	wireBelow := func(l *Log) {
		w := NewWireProbe(l)
		w.Observe(1, 11, &netsim.Packet{Kind: netsim.KindBeacon, BarrierBE: 12})
		w.Observe(1, 12, &netsim.Packet{Kind: netsim.KindData, Src: 2, MsgTS: 10, Payload: ID{2, 0}})
	}
	for _, tc := range []struct {
		name    string
		mode    Mode
		corrupt func(*Log)
		inv     string
		trips   bool
	}{
		{"clean", Separate, func(*Log) {}, "", false},
		{"clean unified", Unified, func(*Log) {}, "", false},
		{"clean conflict-aware", ConflictAware, func(*Log) {}, "", false},
		{"tie inversion at equal ts", Unified, func(l *Log) { swap(l.Deliveries[1]) }, "local-order", true},
		{"sorted receivers disagree", Separate, disagree, "pairwise-order", true},
		{"exempt skips cross-receiver order", Separate, func(l *Log) { disagree(l); l.Exempt = map[ID]bool{a: true} }, "pairwise-order", false},
		{"exempt keeps local order", Separate, func(l *Log) { swap(l.Deliveries[2]); l.Exempt = map[ID]bool{a: true} }, "local-order", true},
		{"duplicate", Separate, func(l *Log) { l.Deliveries[0] = append(l.Deliveries[0], l.Deliveries[0][0]) }, "at-most-once", true},
		{"never sent to the receiver", Separate, func(l *Log) { l.Deliveries[0] = append(l.Deliveries[0], l.Deliveries[1][0]) }, "integrity", true},
		{"partial reliable, no send-fail", Separate, func(l *Log) { l.Deliveries[2] = l.Deliveries[2][1:] }, "atomicity", true},
		{"partial reliable, failed receiver", Separate, func(l *Log) { l.Deliveries[2] = l.Deliveries[2][1:]; l.Correct = []bool{true, true, false} }, "atomicity", false},
		{"clock behind ts", Separate, func(l *Log) { l.Deliveries[2][0].ClockAt = 9 }, "causality", true},
		{"above the barrier", Separate, func(l *Log) { l.Deliveries[2][0].BarC = 9 }, "barrier-gate", true},
		{"above the barrier, unified", Unified, func(l *Log) { l.Deliveries[0][0].BarBE = 10 }, "barrier-gate", true},
		{"above the barrier, tagged", ConflictAware, func(l *Log) { l.Deliveries[2][0].BarC = 9 }, "barrier-gate", true},
		{"above the barrier, not annotated", Separate, func(l *Log) { l.Deliveries[2][0].BarC = 9; l.Annotated = false }, "barrier-gate", false},
		{"same-key inversion", ConflictAware, func(l *Log) { swap(l.Deliveries[2]) }, "conflict-pair-order", true},
		{"above the failure timestamp", Separate, failBelowC, "discard-floor", true},
		{"forwarded above the failure timestamp", Separate, func(l *Log) { failBelowC(l); l.Forwarded = map[ID]bool{c: true} }, "discard-floor", false},
		{"exempt above the failure timestamp", Separate, func(l *Log) { failBelowC(l); l.Exempt = map[ID]bool{c: true} }, "discard-floor", true},
		{"data below a carried barrier", Separate, wireBelow, "wire-barrier", true},
		{"data below a carried barrier, sender failed", Separate, func(l *Log) { wireBelow(l); l.Correct = []bool{true, true, false} }, "wire-barrier", false},
		{"announced barrier regresses", Separate, func(l *Log) { l.Deliveries[1][0].BarC = 100 }, "epoch-barrier", true},
		{"delivery at the join epoch", Separate, func(l *Log) { l.Joined = map[netsim.ProcID]sim.Time{2: 10} }, "join-epoch", true},
		{"failed below the join epoch", Separate, func(l *Log) { l.Joined = map[netsim.ProcID]sim.Time{1: 5}; l.Fail(map[netsim.ProcID]sim.Time{1: 4}) }, "join-epoch", true},
		{"joined receiver disagrees", Separate, func(l *Log) { disagree(l); l.Joined = map[netsim.ProcID]sim.Time{2: 0} }, "join-suffix", true},
		{"delivery after the drain", Separate, func(l *Log) { l.Drained = map[netsim.ProcID]Drain{2: {LogLen: 1}} }, "drain-silence", true},
		{"drained proc named failed", Separate, func(l *Log) { drain2(l, false) }, "drain-no-failure", true},
		{"drained proc crashed too", Separate, func(l *Log) { drain2(l, true) }, "drain-no-failure", false},
	} {
		l := cleanLog(tc.mode)
		tc.corrupt(l)
		vios := Check(l)
		tripped := false
		for _, v := range vios {
			tripped = tripped || v.Invariant == tc.inv
		}
		if tripped != tc.trips || tc.inv == "" && len(vios) > 0 {
			t.Errorf("%s: %s tripped %v, want %v; report %v", tc.name, tc.inv, tripped, tc.trips, vios)
		}
	}
}

// TestDiscardFloorShowsBarrier: on an annotated log a discard-floor
// violation names the receiver's commit barrier at delivery, the evidence
// that tells a too-low fts from a barrier that ran ahead of the sender.
func TestDiscardFloorShowsBarrier(t *testing.T) {
	for _, annotated := range []bool{true, false} {
		l := cleanLog(Separate)
		l.Annotated = annotated
		l.Correct = []bool{false, true, true}
		l.Fail(map[netsim.ProcID]sim.Time{0: 15})
		var details []string
		for _, v := range Check(l) {
			if v.Invariant == "discard-floor" {
				details = append(details, v.Detail)
			}
		}
		if len(details) == 0 {
			t.Fatalf("annotated=%v: no discard-floor violation", annotated)
		}
		for _, d := range details {
			if has := strings.HasSuffix(d, "under commit barrier 0.025us"); has != annotated {
				t.Errorf("annotated=%v: detail %q", annotated, d)
			}
		}
	}
}

// FuzzAgreement compares the one agreement routine with its definition:
// two logs agree when, for every pair x, y delivered at both and not
// exempt, x comes before y at a exactly when it does at b. Each log is a
// duplicate-free sequence of up to 8 ids drawn from the input.
func FuzzAgreement(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{3, 2, 1, 0}, byte(0))
	f.Add([]byte{0, 1, 2}, []byte{0, 2, 1}, byte(4))
	f.Add([]byte{5, 1, 7}, []byte{1, 4, 7, 5}, byte(0x20))
	f.Fuzz(func(t *testing.T, ra, rb []byte, exemptBits byte) {
		build := func(raw []byte) []Delivery {
			var log []Delivery
			seen := map[int32]bool{}
			for _, v := range raw {
				if seq := int32(v % 8); !seen[seq] {
					seen[seq] = true
					log = append(log, Delivery{ID: ID{Seq: seq}})
				}
			}
			return log
		}
		a, b := build(ra), build(rb)
		exempt := map[ID]bool{}
		for seq := int32(0); seq < 8; seq++ {
			if exemptBits&(1<<seq) != 0 {
				exempt[ID{Seq: seq}] = true
			}
		}
		pos := func(log []Delivery) map[ID]int {
			m := map[ID]int{}
			for i, d := range log {
				if !exempt[d.ID] {
					m[d.ID] = i
				}
			}
			return m
		}
		pa, pb := pos(a), pos(b)
		want := false
		for x, xa := range pa {
			for y, ya := range pa {
				xb, okx := pb[x]
				yb, oky := pb[y]
				if okx && oky && (xa < ya) != (xb < yb) {
					want = true
				}
			}
		}
		x, y, found := disagreement(a, b, exempt)
		if found != want {
			t.Fatalf("a=%v b=%v exempt=%v: disagreement found %v, definition says %v", a, b, exempt, found, want)
		}
		if found && !(pa[x] < pa[y] && pb[y] < pb[x]) {
			t.Fatalf("a=%v b=%v: reported pair %v, %v is not inverted", a, b, x, y)
		}
	})
}
