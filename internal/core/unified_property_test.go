package core

import (
	"math/rand"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// runMixedWorkload deploys a small cluster in the given delivery mode, runs a
// seed-derived mix of best-effort and reliable scatterings, and returns the
// oracle log of every send and delivery.
func runMixedWorkload(t *testing.T, mode DeliveryMode, seed int64) *oracle.Log {
	return runKeyedWorkload(t, mode, seed, nil)
}

// runKeyedWorkload is runMixedWorkload with a conflict-key assignment: keyFor
// maps each scattering's sequence number to its ConflictKey. It is a pure
// function of the number — no RNG draw — so two runs of the same seed in
// different modes (or with different assignments) consume identical
// randomness and submit identical traffic; only delivery differs. nil means
// untagged sends.
func runKeyedWorkload(t *testing.T, mode DeliveryMode, seed int64, keyFor func(seq int32) uint32) *oracle.Log {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 1}, 2)
	cfg.Seed = seed
	cfg.Impair = netsim.UniformJitter(500 * sim.Nanosecond)
	ccfg := DefaultConfig()
	ccfg.Mode = mode
	cl := Deploy(netsim.New(cfg), ccfg)
	np := len(cl.Procs)
	log := record(cl)

	rng := rand.New(rand.NewSource(seed))
	eng := cl.Net.Eng
	var loop func(pi int)
	loop = func(pi int) {
		if eng.Now() > 400*sim.Microsecond {
			return
		}
		var msgs []Message
		fan := 1 + rng.Intn(3)
		seen := map[netsim.ProcID]bool{netsim.ProcID(pi): true}
		for len(msgs) < fan {
			dst := netsim.ProcID(rng.Intn(np))
			if seen[dst] {
				continue
			}
			seen[dst] = true
			msgs = append(msgs, Message{Dst: dst, Size: 64})
		}
		o := SendOptions{Reliable: rng.Intn(2) == 0}
		if keyFor != nil {
			o.ConflictKey = keyFor(int32(len(log.Sends)))
		}
		_ = sendLogged(cl, log, pi, msgs, o)
		eng.After(sim.Time(1+rng.Intn(4))*sim.Microsecond, func() { loop(pi) })
	}
	for pi := 0; pi < np; pi++ {
		pi := pi
		eng.After(sim.Time(rng.Intn(3000))*sim.Nanosecond, func() { loop(pi) })
	}
	cl.Run(900 * sim.Microsecond)
	return log
}

// mergedInversions counts the (ts, src) inversions in the receivers' merged
// logs, both planes and tagged or not: what the oracle would report were the
// log owed a single total order.
func mergedInversions(l *oracle.Log) int {
	merged := *l
	merged.Mode, merged.Annotated = oracle.Unified, false
	n := 0
	for _, v := range oracle.Check(&merged) {
		if v.Invariant == "local-order" {
			n++
		}
	}
	return n
}

// TestOracleModeNumbering pins the oracle's mode values to core's, which
// record converts by number.
func TestOracleModeNumbering(t *testing.T) {
	if oracle.Mode(DeliverSeparate) != oracle.Separate || oracle.Mode(DeliverUnified) != oracle.Unified ||
		oracle.Mode(DeliverConflictAware) != oracle.ConflictAware {
		t.Fatal("oracle.Mode and core.DeliveryMode number the modes differently")
	}
}

// TestUnifiedCrossClassTotalOrder is the property test for DeliverUnified:
// across many seeds, every receiver's merged delivery log — best-effort and
// reliable interleaved — satisfies the oracle's single total order: strictly
// sorted by (ts, src), and any two receivers agree on the relative order of
// their common scatterings. This is the cross-class single total order of
// DESIGN deviation #4; DeliverSeparate promises it per plane only (see
// TestSeparatePerPlaneOrderOnly).
func TestUnifiedCrossClassTotalOrder(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		log := runMixedWorkload(t, DeliverUnified, seed)
		checkLog(t, log)
		crossClassPairs := 0
		for _, l := range log.Deliveries {
			for j := 1; j < len(l); j++ {
				if l[j-1].Reliable != l[j].Reliable {
					crossClassPairs++
				}
			}
		}
		if log.TotalDeliveries() == 0 {
			t.Fatalf("seed %d: no deliveries — workload wired wrong", seed)
		}
		if crossClassPairs == 0 {
			t.Fatalf("seed %d: no cross-class adjacency anywhere — test exercises nothing", seed)
		}
	}
}

// TestSeparatePerPlaneOrderOnly pins DeliverSeparate's weaker contract: each
// plane's subsequence is totally ordered, while the merged cross-class log
// need not be (the planes advance on independent barriers). The test asserts
// the per-plane contract on every seed and requires that at least one seed
// exhibits a cross-class inversion — otherwise the distinction between the
// modes has silently disappeared and DeliverUnified is no longer buying
// anything.
func TestSeparatePerPlaneOrderOnly(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	inversions := 0
	for seed := int64(1); seed <= seeds; seed++ {
		log := runMixedWorkload(t, DeliverSeparate, seed)
		checkLog(t, log)
		inversions += mergedInversions(log)
	}
	if inversions == 0 {
		t.Fatalf("no cross-class inversion in %d DeliverSeparate seeds — the mode distinction tests nothing", seeds)
	}
}

// TestUnifiedCrossQueueTieBreakPSN pins the unified-mode tie-break at its
// sharpest edge: best-effort and reliable entries from the SAME sender with
// the SAME timestamp, injected directly into the delivery queues so the
// collision is guaranteed rather than hoped for. The cross-queue choice in
// drainQueues must fall through to the PSN — the regression was comparing
// only (ts, src) and always preferring the best-effort queue on ties, which
// silently inverted the documented (ts, src, psn) total order whenever the
// reliable entry carried the lower PSN.
func TestUnifiedCrossQueueTieBreakPSN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = DeliverUnified
	w := &stubWire{}
	h := NewHost(0, w, cfg)
	proc := h.AddProc(0)
	var got []struct {
		ts       sim.Time
		src      netsim.ProcID
		reliable bool
	}
	proc.OnDeliver = func(d Delivery) {
		got = append(got, struct {
			ts       sim.Time
			src      netsim.ProcID
			reliable bool
		}{d.TS, d.Src, d.Reliable})
	}

	// Two colliding (ts, src) pairs with the plane-vs-PSN relation flipped:
	// at ts=10 the reliable entry has the lower PSN (must beat best-effort);
	// at ts=20 the best-effort entry has the lower PSN (must beat reliable).
	// An always-prefer-beQ tie-break delivers ts=10 backwards; a
	// prefer-relQ one delivers ts=20 backwards. Only the PSN compare
	// survives both.
	h.enqueuePending(10, 3, 0, 5, "be", 64, false, 0, 0)
	h.enqueuePending(10, 3, 0, 2, "rel", 64, true, 0, 0)
	h.enqueuePending(20, 3, 0, 1, "be", 64, false, 0, 0)
	h.enqueuePending(20, 3, 0, 7, "rel", 64, true, 0, 0)
	h.barrierBE = 100
	h.barrierC = 100
	h.drain()

	want := []struct {
		ts       sim.Time
		reliable bool
	}{{10, true}, {10, false}, {20, false}, {20, true}}
	if len(got) != len(want) {
		t.Fatalf("delivered %d of %d injected messages", len(got), len(want))
	}
	for i, g := range got {
		if g.ts != want[i].ts || g.reliable != want[i].reliable {
			t.Fatalf("delivery %d: ts=%d reliable=%v, want ts=%d reliable=%v — PSN tie-break lost",
				i, g.ts, g.reliable, want[i].ts, want[i].reliable)
		}
	}
}

// TestLateBETieOnSender pins the late check on the full (ts, src) key, as a
// non-FIFO link can present it: once (10, src 5) is delivered, a best-effort
// message at ts 10 from sender 3 sorts before it, so it is NAK'd and never
// delivered; one at ts 10 from sender 7 sorts after it and is delivered. On
// the single-packet and the frame path, in the separate and the merged
// delivery order.
func TestLateBETieOnSender(t *testing.T) {
	for _, mode := range []DeliveryMode{DeliverSeparate, DeliverUnified} {
		for _, frame := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			w := &stubWire{}
			h := NewHost(0, w, cfg)
			var got []netsim.ProcID
			h.AddProc(0).OnDeliver = func(d Delivery) { got = append(got, d.Src) }
			inject := func(src netsim.ProcID) {
				pkt := netsim.GetPacket()
				pkt.Kind, pkt.Src, pkt.Dst, pkt.MsgTS = netsim.KindData, src, 0, 10
				if frame {
					f := netsim.GetFrame()
					f.Entries = append(f.Entries, netsim.FrameEntry{TS: 10, Size: 64})
					f.Span = 1
					pkt.Frame, pkt.Payload, pkt.Size = true, f, netsim.HeaderBytes+netsim.FrameEntryBytes+64
				} else {
					pkt.EndOfMsg, pkt.Size = true, netsim.HeaderBytes+64
				}
				h.HandlePacket(pkt)
			}
			inject(5)
			h.barrierBE, h.barrierC = 11, 11
			h.drain()
			inject(3)
			inject(7)
			h.drain()
			var naked []netsim.ProcID
			for _, p := range w.sent {
				if p.Kind == netsim.KindNak {
					naked = append(naked, p.Dst)
				}
			}
			if len(got) != 2 || got[0] != 5 || got[1] != 7 || len(naked) != 1 || naked[0] != 3 || h.Stats.Naks != 1 {
				t.Errorf("mode %d frame=%v: delivered from %v, NAK'd %v (Naks %d); want [5 7] delivered and only sender 3 NAK'd",
					mode, frame, got, naked, h.Stats.Naks)
			}
		}
	}
}
