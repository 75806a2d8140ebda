package core

import (
	"fmt"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// chunkBoundaryRun has host 0 meet 40 peers on both sides — process 0 sends
// to all of them and hears from all of them, process 41 does both with
// every fifth — so each of its slabs fills three chunks, in an order that is
// neither slab order nor peer order. Its first pairs meanwhile hold a
// doorbell-held frame (0→1), an armed RTO (0→2), a credit-blocked
// scattering behind a window-filling one (0→4) and unflushed ACKs (3→0).
// move, if set, runs once the chunks are open. It returns what it found
// wrong: pointers handed out before the later chunks opened must still be
// the pairs' (timer handlers, Host.held, credits); then every message is
// delivered, every pair settles with its PSNs and cursors intact, and
// eachPair walks in (local process, peer ID) order.
func chunkBoundaryRun(move func(h *Host)) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	cfg := DefaultConfig()
	cfg.AckFlush = 10 * sim.Microsecond
	eng, hosts, procs, wires := cablePair(cfg)
	h := hosts[0]
	p0, p41 := procs[0], h.AddProc(41)
	for id := 2; id <= 40; id++ {
		hosts[1].AddProc(netsim.ProcID(id))
	}
	// The first reliable ACK toward host 0 is lost, so the RTO fires.
	lost := false
	wires[1].drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.KindAck && pkt.Reliable && !lost {
			lost = true
			return true
		}
		return false
	}
	got, want := map[connKey]int{}, map[connKey]int{}
	pkts := map[connKey][2]uint32{} // PSNs each pair must end at, per plane
	for _, hh := range hosts {
		for _, p := range hh.procs {
			if p == nil {
				continue
			}
			dst := p.ID
			p.OnDeliver = func(d Delivery) { got[connKey{d.Src, dst}]++ }
			p.OnSendFail = func(f SendFailure) { fail("send %d→%d at %d failed", p.ID, f.Dst, f.TS) }
		}
	}
	// Only a send that names a batch window may wait for company: every
	// other one leaves at once, so nothing but 0→1 holds a frame.
	send := func(p *Proc, dst netsim.ProcID, size int, o SendOptions) {
		o.NoBatch = o.BatchWindow == 0
		if err := p.SendOpts([]Message{{Dst: dst, Size: size}}, o); err != nil {
			fail("send %d→%d: %v", p.ID, dst, err)
			return
		}
		k := connKey{p.ID, dst}
		want[k]++
		n := pkts[k]
		n[cls(o.Reliable)] += uint32(fragsOf(size, cfg.MTU))
		pkts[k] = n
	}
	eng.RunFor(10 * cfg.BeaconInterval)

	// The first pairs, all in the first chunk.
	send(p0, 1, 64, SendOptions{BatchWindow: 30 * sim.Microsecond})
	send(p0, 2, 64, SendOptions{Reliable: true})
	send(p0, 4, 100*cfg.MTU, SendOptions{Reliable: true})
	send(p0, 4, 64, SendOptions{Reliable: true})
	send(hosts[1].proc(3), 0, 64, SendOptions{})
	eng.RunFor(cableDelay + 100)
	c1, c2, c4 := h.findConn(0, 1), h.findConn(0, 2), h.findConn(0, 4)
	r3 := h.findRconn(3, 0)
	if c1 == nil || c2 == nil || c4 == nil || r3 == nil ||
		c1.work == nil || c1.work.holdIdx == 0 || c2.work == nil || !c2.work.rto.isArmed() ||
		len(h.waitQ) != 1 || r3.work == nil || r3.work.acks[0].batch == nil {
		return append(bad, "the first pairs hold no frame, RTO, credit or ACK")
	}
	held := map[connKey]*conn{c1.key: c1, c2.key: c2, c4.key: c4}
	blocked := h.waitQ[0]

	// Forty peers, met from the highest ID down, the receive side as their
	// packets arrive.
	for k := netsim.ProcID(40); k >= 1; k-- {
		if k > 4 {
			send(p0, k, 64, SendOptions{})
		}
		if k%5 == 0 {
			send(p41, k, 64, SendOptions{})
			send(hosts[1].proc(k), 41, 64, SendOptions{})
		}
		if k != 3 {
			send(hosts[1].proc(k), 0, 64, SendOptions{})
		}
	}
	eng.RunFor(cableDelay + 100)
	if n, m := len(h.conns.chunks), len(h.rconns.chunks); n != 3 || m != 3 {
		return append(bad, fmt.Sprintf("slabs hold %d and %d chunks, want three each", n, m))
	}
	if move != nil {
		move(h)
	}

	// Everything that held a pair before the later chunks opened still
	// holds the pair a lookup finds.
	for k, c := range held {
		if h.findConn(k.src, k.dst) != c {
			fail("conn %v moved under a pointer handed out earlier", k)
		}
	}
	if h.findRconn(3, 0) != r3 {
		fail("rconn 3→0 moved under a pointer handed out earlier")
	}
	if len(h.held) != 1 || h.held[0].c != h.findConn(0, 1) {
		fail("Host.held does not name conn 0→1")
	}
	if c := h.findConn(0, 2); c.work == nil || c.work.rto.st.Handler() != (*connRTO)(c) {
		fail("the RTO of conn 0→2 fires on another conn")
	}
	if c := h.findConn(0, 1); c.work == nil || c.work.doorbell.st.Handler() != (*connDoorbell)(c) {
		fail("the doorbell of conn 0→1 rings on another conn")
	}
	if rc := h.findRconn(3, 0); rc.work == nil || rc.work.acks[0].timer.st.Handler() != (*rconnAckBE)(rc) {
		fail("the ACK flush of rconn 3→0 fires on another rconn")
	}
	if blocked.credits[0].conn != h.findConn(0, 4) {
		fail("the credit-blocked scattering holds another conn")
	}
	if len(bad) > 0 {
		return bad // running on would drive the stale copies
	}

	eng.RunFor(500 * sim.Microsecond)
	if !lost || h.Stats.PktsRetx == 0 {
		fail("no reliable ACK was lost, or the RTO never fired")
	}
	for k, n := range want {
		if got[k] != n {
			fail("pair %v delivered %d of %d", k, got[k], n)
		}
	}
	for k, n := range pkts {
		c := hosts[0].findConn(k.src, k.dst)
		rc := hosts[1].findRconn(k.src, k.dst)
		if c == nil || rc == nil {
			c, rc = hosts[1].findConn(k.src, k.dst), hosts[0].findRconn(k.src, k.dst)
		}
		switch {
		case c == nil || rc == nil:
			fail("pair %v not met on both sides", k)
		case c.work != nil || rc.work != nil:
			fail("pair %v did not settle", k)
		case c.key != k || rc.key != k:
			fail("pair %v found as %v and %v", k, c.key, rc.key)
		case c.nextPSN != n || rc.doneBase != n:
			fail("pair %v: PSNs %v, cursors %v, want %v", k, c.nextPSN, rc.doneBase, n)
		}
	}
	for _, hh := range hosts {
		cs, rcs := hh.connList(), hh.rconnList()
		for i := 1; i < len(cs); i++ {
			if a, b := cs[i-1].key, cs[i].key; a.src > b.src || a.src == b.src && a.dst >= b.dst {
				fail("host %d walks conn %v before %v", hh.ID, a, b)
			}
		}
		for i := 1; i < len(rcs); i++ {
			if a, b := rcs[i-1].key, rcs[i].key; a.dst > b.dst || a.dst == b.dst && a.src >= b.src {
				fail("host %d walks rconn %v before %v", hh.ID, a, b)
			}
		}
	}
	return bad
}

// TestSlabChunkBoundary: pairs met in later chunks leave the earlier pairs,
// and everything pointing at them, where they were (chunkBoundaryRun).
func TestSlabChunkBoundary(t *testing.T) {
	for _, s := range chunkBoundaryRun(nil) {
		t.Error(s)
	}
}

// TestSlabChunkBoundaryCatchesMovedPairs is the negative control: a slab
// whose chunks were grown with append would move every pair in a chunk to a
// new array when the chunk outgrew its old one. Re-homing each chunk that
// way, once the later chunks are open, must make chunkBoundaryRun fail.
func TestSlabChunkBoundaryCatchesMovedPairs(t *testing.T) {
	rehome := func(h *Host) {
		for i, ch := range h.conns.chunks {
			h.conns.chunks[i] = (*[pairChunk]conn)(append([]conn(nil), ch[:]...))
		}
		for i, ch := range h.rconns.chunks {
			h.rconns.chunks[i] = (*[pairChunk]rconn)(append([]rconn(nil), ch[:]...))
		}
	}
	if bad := chunkBoundaryRun(rehome); len(bad) == 0 {
		t.Fatal("pairs moved under live pointers, and the run found nothing wrong")
	} else {
		t.Logf("found, as it should: %v", bad)
	}
}

// FuzzPairTable drives one host's pair tables with a script of meets,
// lookups, attaches, settles and walks over four local processes and 256
// peer IDs, against a map of the pointer each meet handed out. Each pair is
// marked when met (send side: its PSNs; receive side: its cursors, advanced
// at every attach), and after every step each pointer handed out must
// still address its own key and marks, every lookup must return the
// model's pair or nil, and a walk must visit exactly the model's pairs in
// (local process, peer ID) order.
func FuzzPairTable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 0, 5, 4, 0, 5, 2, 0, 5, 1, 0, 5, 5, 0, 0})
	f.Add([]byte{0, 1, 200, 0, 2, 3, 0, 3, 17, 1, 1, 9, 1, 2, 250, 3, 1, 200, 2, 2, 250, 4, 3, 17, 5, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		h := NewHost(0, &afterWire{now: 1}, DefaultConfig())
		const local = 4
		var procs [local]*Proc
		for i := range procs {
			procs[i] = h.AddProc(netsim.ProcID(100 + i))
		}
		sends := map[connKey]*conn{}
		recvs := map[connKey]*rconn{}
		cursors := map[connKey][2]uint32{}
		mark := func(k connKey) [2]uint32 {
			return [2]uint32{uint32(k.src)<<16 | uint32(k.dst), uint32(k.dst)<<16 | uint32(k.src)}
		}
		check := func(step int) {
			t.Helper()
			for k, c := range sends {
				if c.key != k || c.nextPSN != mark(k) {
					t.Fatalf("step %d: conn handed out for %v now holds %v, PSNs %v", step, k, c.key, c.nextPSN)
				}
			}
			for k, rc := range recvs {
				if rc.key != k || rc.cursor() != cursors[k] {
					t.Fatalf("step %d: rconn handed out for %v now holds %v, cursors %v, want %v", step, k, rc.key, rc.cursor(), cursors[k])
				}
			}
			if n := h.Stats.ConnsLive; n != int64(len(sends)+len(recvs)) {
				t.Fatalf("step %d: ConnsLive %d, model holds %d", step, n, len(sends)+len(recvs))
			}
		}
		for step := 0; 3*step+2 < len(script); step++ {
			op, p, peer := script[3*step], procs[int(script[3*step+1])%local], netsim.ProcID(script[3*step+2])
			sk, rk := connKey{p.ID, peer}, connKey{peer, p.ID}
			switch op % 6 {
			case 0: // meet, or find, the send side
				c := p.conn(peer)
				if old, ok := sends[sk]; ok && c != old {
					t.Fatalf("step %d: conn %v met again as a new pair", step, sk)
				} else if !ok {
					c.nextPSN = mark(sk)
					sends[sk] = c
				}
			case 1: // meet, or find, the receive side; attached, the cursors move
				rc := h.getRconn(peer, p.ID)
				if old, ok := recvs[rk]; ok && rc != old {
					t.Fatalf("step %d: rconn %v met again as a new pair", step, rk)
				}
				recvs[rk] = rc
				rc.work.bufs[0].doneBase++
				rc.work.bufs[1].doneBase += 2
				cursors[rk] = rc.cursor()
			case 2: // settle the receive side
				if rc := recvs[rk]; rc != nil {
					rc.settle()
					if rc.work != nil {
						t.Fatalf("step %d: idle rconn %v did not settle", step, rk)
					}
				}
			case 3: // attach and settle the send side
				if c := sends[sk]; c != nil {
					if c.attach(h).host != h {
						t.Fatalf("step %d: conn %v attached a part of another host", step, sk)
					}
					c.settle()
				}
			case 4: // look up both sides
				if c := h.findConn(p.ID, peer); c != sends[sk] {
					t.Fatalf("step %d: findConn%v = %p, model %p", step, sk, c, sends[sk])
				}
				if rc := h.findRconn(peer, p.ID); rc != recvs[rk] {
					t.Fatalf("step %d: findRconn%v = %p, model %p", step, rk, rc, recvs[rk])
				}
			case 5: // walk
				var cs []*conn
				var rcs []*rconn
				h.eachPair(func(c *conn) { cs = append(cs, c) }, func(rc *rconn) { rcs = append(rcs, rc) })
				if len(cs) != len(sends) || len(rcs) != len(recvs) {
					t.Fatalf("step %d: walk visits %d + %d pairs, model holds %d + %d", step, len(cs), len(rcs), len(sends), len(recvs))
				}
				for i, c := range cs {
					if sends[c.key] != c {
						t.Fatalf("step %d: walk visits conn %v the model does not hold", step, c.key)
					}
					if i > 0 {
						if a := cs[i-1].key; a.src > c.key.src || a.src == c.key.src && a.dst >= c.key.dst {
							t.Fatalf("step %d: walk visits conn %v before %v", step, a, c.key)
						}
					}
				}
				for i, rc := range rcs {
					if recvs[rc.key] != rc {
						t.Fatalf("step %d: walk visits rconn %v the model does not hold", step, rc.key)
					}
					if i > 0 {
						if a := rcs[i-1].key; a.dst > rc.key.dst || a.dst == rc.key.dst && a.src >= rc.key.src {
							t.Fatalf("step %d: walk visits rconn %v before %v", step, a, rc.key)
						}
					}
				}
			}
			check(step)
		}
	})
}
