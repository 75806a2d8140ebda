package core

import (
	"testing"
	"unsafe"

	"onepipe/internal/netsim"
	"onepipe/internal/race"
	"onepipe/internal/sim"
)

// TestScatteringFootprint pins the two sizes the embedded capacity was chosen
// by: a scattering is the one object a best-effort message allocates, and an
// outPkt is the slab element of every wider one. At an embedded capacity of 4
// the scattering was 656 bytes and the gain of embedding was lost to the
// collector (docs/performance.md).
func TestScatteringFootprint(t *testing.T) {
	if got := unsafe.Sizeof(scattering{}); got > 320 {
		t.Fatalf("scattering is %d bytes, want at most 320", got)
	}
	if got := unsafe.Sizeof(outPkt{}); got != 40 {
		t.Fatalf("outPkt is %d bytes, want 40", got)
	}
}

// TestReliableScatteringAllocs pins the allocations of one reliable
// 4-destination × 4 KiB scattering — 16 packets at the default MTU — through
// send, reassembly, delivery, ACK and commit on a warm fabric: none. The
// scattering, with its int, credit and 16-outPkt slabs, comes off the
// fabric's wide free list, where the previous round's went back at commit;
// the receive side allocates nothing. The round used to be 43 objects: 22
// for the scattering with a slice per bookkeeping array and an object per
// packet, the outstanding list re-grown from nothing, and the receivers'
// reorder entries and ACK batches; then 4, the scattering and its slabs.
func TestReliableScatteringAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cl := simRack(5, DefaultConfig())
	delivered := 0
	for p := 1; p <= 4; p++ {
		cl.Proc(p).OnDeliverBatch = func(ds []Delivery) { delivered += len(ds) }
	}
	cl.Proc(0).OnSendFail = func(f SendFailure) { t.Errorf("send failed: %+v", f) }
	const runs = 100
	var msgs []Message // Send copies it: one for every round
	for d := 1; d <= 4; d++ {
		msgs = append(msgs, Message{Dst: netsim.ProcID(d), Size: 4096})
	}
	next := 0
	round := func() {
		if err := cl.Proc(0).SendReliable(msgs); err != nil {
			t.Fatal(err)
		}
		next++
		cl.Run(10 * cl.cfg.BeaconInterval)
	}
	for i := 0; i < 32; i++ { // warm: connections, pools, heaps, reassembly maps
		round()
	}
	const want = 0
	if avg := testing.AllocsPerRun(runs, round); avg != want {
		t.Errorf("reliable 4 × 4 KiB round: %v allocs, want %d", avg, want)
	}
	if delivered != 4*next {
		t.Fatalf("%d of %d delivered", delivered, 4*next)
	}
	if retx := cl.TotalStats().PktsRetx; retx != 0 {
		t.Fatalf("%d retransmissions on a lossless fabric: the round is not the steady state", retx)
	}
}

// TestPendingNotAliasedAfterDispatch: a reorder-buffer entry goes back to the
// host's free list the moment dispatch returns, so what the application was
// handed must not depend on it. Under every delivery mode — and so through
// deliver, deliverNow and deliverRelaxed — one receiver keeps every Delivery
// from OnDeliver and another copies every OnDeliverBatch slice; after 10 000
// further deliveries have cycled the free list many times over, each kept
// value still is the message that was sent, once. Releasing the entry before
// dispatch reads it fails here.
func TestPendingNotAliasedAfterDispatch(t *testing.T) {
	type sent struct {
		reliable bool
		conflict uint32
	}
	for _, mode := range []DeliveryMode{DeliverSeparate, DeliverUnified, DeliverConflictAware} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cl := simRack(3, cfg)
		var kept [3][]Delivery
		cl.Proc(1).OnDeliver = func(d Delivery) { kept[1] = append(kept[1], d) }
		cl.Proc(2).OnDeliverBatch = func(ds []Delivery) { kept[2] = append(kept[2], ds...) }
		cl.Proc(0).OnSendFail = func(f SendFailure) { t.Errorf("mode %v: send failed: %+v", mode, f) }
		var log []sent
		send := func(n int) {
			for i := 0; i < n; i++ {
				id := len(log)
				o := SendOptions{Reliable: id%3 == 0, ConflictKey: uint32(id % 2 * 7)}
				log = append(log, sent{o.Reliable, o.ConflictKey})
				msgs := []Message{{Dst: 1, Data: id, Size: 64}, {Dst: 2, Data: id, Size: 64}}
				if err := cl.Proc(0).SendOpts(msgs, o); err != nil {
					t.Fatal(err)
				}
				if i%10 == 9 {
					cl.Run(sim.Microsecond)
				}
			}
			cl.Run(200 * sim.Microsecond)
		}
		check := func(upTo int) {
			for dst := 1; dst <= 2; dst++ {
				seen := make(map[int]bool)
				for _, d := range kept[dst][:upTo] {
					id, ok := d.Data.(int)
					if !ok || id >= len(log) || seen[id] {
						t.Fatalf("mode %v, proc %d: delivery %+v is not a message sent once", mode, dst, d)
					}
					seen[id] = true
					want := Delivery{TS: d.TS, Src: 0, Dst: netsim.ProcID(dst), Data: id,
						Reliable: log[id].reliable, Conflict: log[id].conflict}
					if d != want || d.TS <= 0 {
						t.Fatalf("mode %v, proc %d: kept %+v, sent %+v", mode, dst, d, want)
					}
				}
			}
		}
		send(200)
		first := len(log)
		if len(kept[1]) != first || len(kept[2]) != first {
			t.Fatalf("mode %v: %d and %d of %d delivered", mode, len(kept[1]), len(kept[2]), first)
		}
		check(first)
		send(5000)
		if len(kept[1]) != len(log) || len(kept[2]) != len(log) {
			t.Fatalf("mode %v: %d and %d of %d delivered", mode, len(kept[1]), len(kept[2]), len(log))
		}
		check(len(log))
		for _, h := range cl.Hosts[1:] {
			if len(h.pendFree) == 0 || len(h.pendFree) > first {
				t.Fatalf("mode %v: host %d free list holds %d entries after %d deliveries", mode, h.ID, len(h.pendFree), len(log))
			}
			for _, p := range h.pendFree {
				if *p != (pending{}) {
					t.Fatalf("mode %v: host %d free list holds a live entry %+v", mode, h.ID, *p)
				}
			}
		}
	}
}

// slabSnap is a scattering's packet slab as first seen: where each outPkt
// lives and the PSN it was given.
type slabSnap struct {
	ptrs []*outPkt
	psns []uint32
}

// launchKey names one launch of a scattering. A released scattering is
// taken again by a later send, so one pointer names several over a run;
// the timestamp is new at every launch.
type launchKey struct {
	s  *scattering
	ts sim.Time
}

// checkSlabs walks everything on h that holds an *outPkt — send queues,
// unacked rings with their frame chains, parked packets — and requires each to
// be an element of its own scattering's pkts, unmoved and with its PSN, since
// the scattering was first seen, and no scattering that holds one to have
// been released.
func checkSlabs(t *testing.T, h *Host, seen map[launchKey]*slabSnap) {
	t.Helper()
	visit := func(where string, op *outPkt) {
		s := op.scat
		if s.free {
			t.Fatalf("%s: outPkt psn=%d belongs to a released scattering", where, op.psn)
		}
		key := launchKey{s, s.ts}
		snap := seen[key]
		if snap == nil {
			if len(s.pkts) != s.totalPkts || cap(s.pkts) < max(s.totalPkts, scatInline) {
				t.Fatalf("%s: launched scattering has %d/%d packets carved, want %d", where, len(s.pkts), cap(s.pkts), s.totalPkts)
			}
			if inline := &s.pkts[0] == &s.pktArr[0]; inline != (s.totalPkts <= scatInline) {
				t.Fatalf("%s: %d-packet scattering inline=%v", where, s.totalPkts, inline)
			}
			snap = &slabSnap{}
			for i := range s.pkts {
				snap.ptrs = append(snap.ptrs, &s.pkts[i])
				snap.psns = append(snap.psns, s.pkts[i].psn)
			}
			seen[key] = snap
		}
		for i, p := range snap.ptrs {
			if p == op {
				if op.psn != snap.psns[i] {
					t.Fatalf("%s: packet %d of its scattering carries PSN %d, was given %d", where, i, op.psn, snap.psns[i])
				}
				return
			}
		}
		t.Fatalf("%s: outPkt psn=%d points outside its scattering's slab", where, op.psn)
	}
	chain := func(where string, key uint32, op *outPkt) {
		if key != op.psn {
			t.Fatalf("%s: keyed %d, head carries PSN %d", where, key, op.psn)
		}
		for m := op; m != nil; m = m.fnext {
			visit(where, m)
			if m.fnext != nil && m.fnext.psn != m.psn+1 {
				t.Fatalf("%s: frame chain PSNs %d → %d", where, m.psn, m.fnext.psn)
			}
		}
	}
	for _, c := range h.connList() {
		w := c.view()
		for _, op := range w.sendQ.live() {
			visit("sendQ", op)
		}
		for _, r := range []*unitRing{&w.unacked[0], &w.unacked[1], &w.parked} {
			for _, sl := range r.slots[r.head:] {
				if sl.op != nil {
					chain("unacked or parked", sl.psn, sl.op)
				}
			}
		}
	}
	for key, snap := range seen {
		s := key.s
		if s.free || s.ts != key.ts {
			continue // released: nothing held a packet of it (visit)
		}
		for i := range snap.ptrs {
			if &s.pkts[i] != snap.ptrs[i] || s.pkts[i].psn != snap.psns[i] || s.pkts[i].scat != s {
				t.Fatalf("scattering ts=%v: packet %d moved or was overwritten", s.ts, i)
			}
		}
	}
}

// TestScatteringSlabStable streams scatterings of 1, 2, 5 and 64 messages and
// two 3-fragment messages through a window of one packet, so their outPkts
// sit in the send queue, in frame chains and in the unacked maps across many
// ACK rounds, and aborts the 64-message scattering mid-stream. At every step
// each reachable *outPkt is still the slab element it was carved as.
func TestScatteringSlabStable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitCwnd, cfg.MaxCwnd = 1, 1
	cfg.SendFailTimeout = 10 * sim.Millisecond // streaming at one packet per ACK round is slow
	eng, hosts, procs, _ := cablePair(cfg)
	delivered := make(map[int]int)
	procs[1].OnDeliver = func(d Delivery) { delivered[d.Data.(int)]++ }
	failed := 0
	procs[0].OnSendFail = func(SendFailure) { failed++ }
	eng.RunUntil(10 * sim.Microsecond)

	id := 0
	scatter := func(n, size int, reliable bool) {
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{Dst: 1, Data: id, Size: size}
			id++
		}
		if err := procs[0].SendOpts(msgs, SendOptions{Reliable: reliable}); err != nil {
			t.Fatal(err)
		}
	}
	scatter(1, 64, false)
	scatter(2, 64, true)
	scatter(5, 64, false)
	scatter(1, 2*cfg.MTU+100, true)
	firstWide := id
	scatter(64, 64, true)
	scatter(1, 2*cfg.MTU+100, false)
	scatter(2, 64, true)

	var wide *scattering
	for _, s := range hosts[0].outstanding {
		if len(s.msgs) == 64 {
			wide = s
		}
	}
	if wide == nil {
		// A window of one launches scatterings one credit at a time; the wide
		// one may still be waiting for its turn.
		for _, s := range hosts[0].waitQ {
			if len(s.msgs) == 64 {
				wide = s
			}
		}
	}
	if wide == nil {
		t.Fatal("the 64-message scattering is neither outstanding nor waiting")
	}
	seen := make(map[launchKey]*slabSnap)
	aborted := false
	for step := 0; step < 20000 && (!aborted || len(delivered)+64 < id); step++ {
		eng.RunFor(100 * sim.Nanosecond)
		checkSlabs(t, hosts[0], seen)
		if !aborted && wide.launched && wide.unackedPkts <= wide.totalPkts-20 {
			queued := 0
			for _, op := range hosts[0].findConn(0, 1).view().sendQ.live() {
				if op.scat == wide {
					queued++
				}
			}
			if queued == 0 {
				t.Fatal("nothing of the wide scattering is still queued: the abort would not be mid-stream")
			}
			hosts[0].abortScattering(wide)
			hosts[0].grantCredits() // as recallAffected does after its aborts
			aborted = true
			checkSlabs(t, hosts[0], seen)
		}
	}
	if !aborted {
		t.Fatal("the wide scattering never got 20 packets acknowledged")
	}
	if failed != 64 {
		t.Fatalf("%d send failures, want the 64 messages of the aborted scattering", failed)
	}
	for i := 0; i < id; i++ {
		want := 1
		if i >= firstWide && i < firstWide+64 {
			want = 0 // recalled before the commit barrier could pass it
		}
		if delivered[i] != want {
			t.Fatalf("message %d delivered %d times, want %d", i, delivered[i], want)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("saw %d scatterings on the wire side, sent 7", len(seen))
	}
	// Six went back to the free lists and the aborted one to the collector:
	// none is still counted live.
	if live := hosts[0].scats.live; live != [2]int{} {
		t.Fatalf("%v scatterings still counted live", live)
	}
	if w := hosts[0].findConn(0, 1).view(); w.sendQ.len() != 0 || w.unacked[0].len()+w.unacked[1].len() != 0 {
		t.Fatalf("stream did not finish: %d queued, %d unacked", w.sendQ.len(), w.unacked[0].len()+w.unacked[1].len())
	}
}
