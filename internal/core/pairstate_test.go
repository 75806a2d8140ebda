package core

import (
	"sort"
	"testing"
	"unsafe"

	"onepipe/internal/race"
)

// connList returns the send side of every pair h has met, in (src, dst)
// order.
func (h *Host) connList() []*conn {
	var out []*conn
	h.eachPair(func(c *conn) { out = append(out, c) }, nil)
	return out
}

// rconnList returns the receive side of every pair h has met, in (dst,
// src) order.
func (h *Host) rconnList() []*rconn {
	var out []*rconn
	h.eachPair(nil, func(rc *rconn) { out = append(out, rc) })
	return out
}

// view returns c's transient part, or an empty one when c has settled, so
// that a test reads a pair's queues without caring which.
func (c *conn) view() *connWork {
	if c.work == nil {
		return new(connWork)
	}
	return c.work
}

// view is conn.view for the receive side.
func (rc *rconn) view() *rconnWork {
	if rc.work == nil {
		return new(rconnWork)
	}
	return rc.work
}

// cursor returns rc's consumed-prefix cursors wherever they live.
func (rc *rconn) cursor() [2]uint32 {
	if rc.work == nil {
		return rc.doneBase
	}
	return [2]uint32{rc.work.bufs[0].doneBase, rc.work.bufs[1].doneBase}
}

// len counts the ring's live units.
func (r *unitRing) len() int {
	n := 0
	for _, s := range r.slots[r.head:] {
		if s.op != nil {
			n++
		}
	}
	return n
}

// FuzzUnitRing drives a unitRing with a script of pushes, takes, lookups and
// walks — walks whose callback removes the unit it is handed, removes a later
// one, or pushes new units as a re-entered Send would — against the map the
// ring replaced plus its sorted key set as the reference model. After every
// step the ring's live units, in slot order, must be exactly the model's keys
// in ascending order, each with its own packet; the head slot must be live
// whenever the ring is not empty; and nothing past the slice may keep a packet
// reachable.
func FuzzUnitRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 5, 1, 9, 2, 3, 3, 4, 0, 0, 0, 0, 0, 3, 0x37})
	f.Add([]byte{0, 0x10, 0, 0x20, 0, 0x30, 0, 0x40, 0, 0x50, 3, 0xff, 1, 0x41, 3, 0x12, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var r unitRing
		ref := make(map[uint32]*outPkt)
		next := uint32(0)
		pos := 0
		arg := func() byte {
			if pos == len(script) {
				return 0
			}
			b := script[pos]
			pos++
			return b
		}
		push := func(gap byte) {
			next += uint32(gap % 4)
			op := &outPkt{psn: next}
			next++
			r.push(op)
			ref[op.psn] = op
		}
		sorted := func() []uint32 {
			keys := make([]uint32, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			return keys
		}
		// pick maps a byte onto a PSN at or a little beyond the pushed range,
		// so lookups of absent and removed units are common.
		pick := func(b byte) uint32 { return uint32(b) % (next + 3) }
		check := func(step int) {
			t.Helper()
			keys := sorted()
			var got []uint32
			for _, s := range r.slots[r.head:] {
				if s.op == nil {
					continue
				}
				if s.op != ref[s.psn] || s.op.psn != s.psn {
					t.Fatalf("step %d: slot psn %d holds the wrong packet", step, s.psn)
				}
				got = append(got, s.psn)
			}
			if len(got) != len(keys) {
				t.Fatalf("step %d: ring holds %v, model %v", step, got, keys)
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("step %d: ring order %v, model %v", step, got, keys)
				}
			}
			if r.empty() != (len(keys) == 0) {
				t.Fatalf("step %d: empty()=%v with %d units", step, r.empty(), len(keys))
			}
			if !r.empty() && r.slots[r.head].op == nil {
				t.Fatalf("step %d: head slot %d is a hole", step, r.head)
			}
			for _, s := range r.slots[len(r.slots):cap(r.slots)] {
				if s.op != nil {
					t.Fatalf("step %d: a slot past the end still references psn %d", step, s.op.psn)
				}
			}
		}
		for step := 0; pos < len(script); step++ {
			switch op := arg(); op % 5 {
			case 0, 1:
				push(arg())
			case 2:
				psn := pick(arg())
				want := ref[psn]
				if got := r.take(psn); got != want {
					t.Fatalf("step %d: take(%d) = %v, model %v", step, psn, got, want)
				}
				delete(ref, psn)
			case 3:
				psn := pick(arg())
				i := r.find(psn)
				if want := ref[psn]; (i >= 0) != (want != nil) || i >= 0 && r.slots[i].op != want {
					t.Fatalf("step %d: find(%d) = %d, model holds %v", step, psn, i, want)
				}
			case 4:
				// The model walk: the keys live at the start, in order, each
				// visited if and only if it is still live when its turn comes.
				start := sorted()
				mode := arg()
				var visited []uint32
				r.walk(func(i int, op *outPkt) {
					if r.slots[i].op != op || ref[op.psn] != op {
						t.Fatalf("step %d: walk handed psn %d, which is not live in slot %d", step, op.psn, i)
					}
					if !contains(start, op.psn) || len(visited) > 0 && visited[len(visited)-1] >= op.psn {
						t.Fatalf("step %d: walk visited %d after %v; live at the start: %v", step, op.psn, visited, start)
					}
					visited = append(visited, op.psn)
					switch mode % 4 {
					case 1: // drop the unit handed over
						r.removeAt(i)
						delete(ref, op.psn)
					case 2: // drop a later unit, chosen by the script
						if psn := pick(arg()); psn > op.psn && ref[psn] != nil {
							r.take(psn)
							delete(ref, psn)
						}
					case 3: // re-entered send: new units, never visited
						for n := arg() % 5; n > 0; n-- {
							push(arg())
						}
					}
				})
				// Removals only reach the unit handed over or a later one, so
				// a start unit still live now was live at its turn.
				for _, psn := range start {
					if ref[psn] != nil && !contains(visited, psn) {
						t.Fatalf("step %d: walk skipped live psn %d (visited %v)", step, psn, visited)
					}
				}
			}
			check(step)
		}
	})
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestConnFootprint: sparse-fabric's untraced 10 s window (seed 1) ends with
// 84 275 conns and 84 247 rconns, nearly all idle, and an idle conn is what
// this struct is: the transient part is pooled, and it carries the host
// pointer the pair's handlers need. Conns sit in their host's slab by value,
// so every word counts in full: one more is 8 bytes over 84 k conns, and
// the 64-byte chunk entry is what the window counters narrowed to int32 and
// the host pointer moved out bought. That is also why the held set is an
// indexed slice on the host and not a list threaded through the conns, and
// why a conn keeps no clock.
func TestConnFootprint(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 64 {
		t.Fatalf("conn is %d bytes, want at most 64", got)
	}
}

// TestRconnFootprint: the receive side of an idle pair is its key, its two
// consumed-prefix cursors and the work pointer, 24 bytes in its host's slab.
// The assembly buffers, the ACK accumulators and the host pointer their
// flush handlers need are pooled. sparse-fabric ends its window with 84 247
// of them (208 bytes each when they embedded both, 32 with a host pointer).
func TestRconnFootprint(t *testing.T) {
	if got := unsafe.Sizeof(rconn{}); got > 24 {
		t.Fatalf("rconn is %d bytes, want at most 24", got)
	}
}

// TestFirstContactAllocs pins what it costs to talk to a peer for the first
// time: one best-effort message to a never-seen process, through delivery and
// the ACK, on two hosts joined by a cable. One object: because every contact
// here is a receiving process's first, that process's one-slot receive
// table. The conn and the rconn are slab entries, a chunk of sixteen per
// sixteen pairs; both transient parts, with the send queue and ring arrays
// in them, come off the free lists the previous contact settled into, and
// the scattering off the fabric's. With six per-PSN maps and their side
// objects it was 16, with the parts embedded 5, with a fresh scattering per
// send 4, with a heap object per conn and rconn 3; a pair's cost should not
// depend on how many peers a host has already met.
func TestFirstContactAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cfg := DefaultConfig()
	const warm, runs = 16, 100
	eng, hosts, src, msgs, delivered := contactPair(cfg, warm+runs+1)
	src.OnSendFail = func(f SendFailure) { t.Errorf("send failed: %+v", f) }
	next := 0
	round := func() {
		if err := src.Send(msgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		eng.RunFor(4 * cfg.BeaconInterval)
	}
	for i := 0; i < warm; i++ { // pools, event queue, free lists
		round()
	}
	// The sender's table and the two slabs' chunk lists grow as peers are
	// met: a handful of arrays over the whole run, well under one object per
	// round.
	avg := testing.AllocsPerRun(runs, round)
	t.Logf("%v allocs per first contact", avg)
	if avg > 1 {
		t.Errorf("first contact: %v allocs, want at most 1", avg)
	}
	if *delivered != next {
		t.Fatalf("%d of %d delivered", *delivered, next)
	}
	if n := len(hosts[0].connList()); n != next {
		t.Fatalf("%d conns for %d peers", n, next)
	}
	for _, c := range hosts[0].connList() {
		k := c.key
		if c.work != nil {
			t.Fatalf("conn %v not settled", k)
		}
	}
}
