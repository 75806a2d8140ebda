package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// mapAsmBuf is the reassembly buffer as it was before its maps became lazy
// and single-fragment messages stopped passing through frags: both maps made
// up front, every fragment buffered. FuzzAsmBufReorder drives it beside
// asmBuf as the reference model.
type mapAsmBuf struct {
	doneBase uint32
	done     map[uint32]bool
	frags    map[uint32]*netsim.Packet
	capped   bool
	freed    int
}

func newMapAsmBuf(capped bool) *mapAsmBuf {
	return &mapAsmBuf{done: make(map[uint32]bool), frags: make(map[uint32]*netsim.Packet), capped: capped}
}

func (a *mapAsmBuf) isDup(psn uint32) bool {
	return psn < a.doneBase || a.done[psn] || a.frags[psn] != nil
}

func (a *mapAsmBuf) markDone(psn uint32) {
	if psn < a.doneBase {
		return
	}
	a.done[psn] = true
	for a.done[a.doneBase] {
		delete(a.done, a.doneBase)
		a.doneBase++
	}
	if a.capped {
		for len(a.done) > asmDoneCap {
			if f := a.frags[a.doneBase]; f != nil {
				delete(a.frags, a.doneBase)
				a.freed++
			}
			delete(a.done, a.doneBase)
			a.doneBase++
		}
	}
}

func (a *mapAsmBuf) add(pkt *netsim.Packet) (last *netsim.Packet, size int, complete bool) {
	a.frags[pkt.PSN] = pkt
	start := pkt.PSN - uint32(pkt.FragIdx)
	j := start
	for {
		f, ok := a.frags[j]
		if !ok {
			return nil, 0, false
		}
		size += f.Size - netsim.HeaderBytes
		if f.EndOfMsg {
			last = f
			break
		}
		j++
	}
	for k := start; k <= j; k++ {
		f := a.frags[k]
		delete(a.frags, k)
		a.markDone(k)
		if f != last {
			a.freed++
		}
	}
	return last, size, true
}

func (a *mapAsmBuf) skip(pkt *netsim.Packet) {
	start := pkt.PSN - uint32(pkt.FragIdx)
	a.markDone(pkt.PSN)
	for j := start; ; j++ {
		f, ok := a.frags[j]
		if !ok {
			if j < pkt.PSN {
				continue
			}
			break
		}
		delete(a.frags, j)
		a.markDone(j)
		a.freed++
		if f.EndOfMsg {
			break
		}
	}
}

// FuzzAsmBufReorder drives the receive-side reassembly/reorder buffer with
// an arbitrary interleaving of fragment arrivals, duplicates, ordering skips
// and floods, checking the properties HandlePacket relies on:
//
//   - a message completes at most once, and only with its true last
//     fragment and exact payload size (at-most-once, §4.1 dedup);
//   - a message none of whose positions were skipped, all of whose
//     fragments arrived, always completes (no lost-wakeup in the hole
//     bookkeeping);
//   - once any position of a message is skipped before completion, the
//     message can never complete (skip is how NAK'd/recalled slots are
//     consumed — resurrecting one would deliver recalled data);
//   - doneBase only moves forward, and consumed positions stay duplicates;
//
// and, after every step, that it agrees with mapAsmBuf, the map-based
// buffer it replaced, on every PSN's isDup, on completion and size, on
// doneBase and on how many fragments it released. A flood completes more
// than asmDoneCap single-fragment messages above the universe, so a
// best-effort buffer's capped force-advance runs across whatever holes and
// buffered fragments the script left behind.
func FuzzAsmBufReorder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, true)
	f.Add([]byte{0x40, 0x01, 0xc3, 0x87, 0x22, 0xff, 0x00, 0x91}, false)
	f.Add([]byte{0x03, 0x05, 0x01, 0x04, 0xbf, 0x08, 0x02}, false)
	f.Fuzz(func(t *testing.T, script []byte, reliable bool) {
		if len(script) == 0 {
			return
		}
		// Fragment universe: 10 messages with 1..3 fragments each, fragment
		// counts drawn from the script so the fuzzer controls message shape.
		const msgCount = 10
		type frag struct {
			pkt *netsim.Packet
			msg int
		}
		var frags []frag
		fragsOf := make([][]uint32, msgCount)
		psn := uint32(0)
		for m := 0; m < msgCount; m++ {
			n := 1 + int(script[m%len(script)])%3
			for j := 0; j < n; j++ {
				frags = append(frags, frag{
					msg: m,
					pkt: &netsim.Packet{
						PSN: psn, FragIdx: uint16(j), EndOfMsg: j == n-1,
						MsgTS: sim.Time(m + 1),
						Size:  netsim.HeaderBytes + 100 + m,
					},
				})
				fragsOf[m] = append(fragsOf[m], psn)
				psn++
			}
		}
		universe := psn
		floodBase := universe + 16 // leave a hole between the universe and the flood
		flood := &netsim.Packet{FragIdx: 0, EndOfMsg: true, Size: netsim.HeaderBytes + 1}

		freed := countReleases(t)
		a := &asmBuf{capped: !reliable}
		ref := newMapAsmBuf(!reliable)
		completed := make([]bool, msgCount)
		skipped := make([]bool, msgCount)
		accepted := make([]int, msgCount)
		prevBase := a.doneBase
		floods := 0
		for step, b := range script {
			fr := frags[int(b&0x3f)%len(frags)]
			switch {
			case b == 0xbf && floods < 2:
				// Flood: complete asmDoneCap+1 messages in order above the
				// universe, on both buffers.
				floods++
				for i := uint32(0); i <= asmDoneCap; i++ {
					flood.PSN = floodBase + i
					if a.isDup(flood.PSN) != ref.isDup(flood.PSN) {
						t.Fatalf("step %d: flood psn %d isDup diverged", step, flood.PSN)
					}
					if a.isDup(flood.PSN) {
						continue
					}
					_, s1, c1 := a.add(nil, flood)
					_, s2, c2 := ref.add(flood)
					if !c1 || !c2 || s1 != s2 {
						t.Fatalf("step %d: flood psn %d: complete %v/%v size %d/%d", step, flood.PSN, c1, c2, s1, s2)
					}
				}
				floodBase += asmDoneCap + 17
			case b>>6 == 3:
				// Ordering skip: consume the slot without delivering.
				if !completed[fr.msg] {
					skipped[fr.msg] = true
				}
				a.skip(nil, fr.pkt)
				ref.skip(fr.pkt)
			case !a.isDup(fr.pkt.PSN):
				if ref.isDup(fr.pkt.PSN) {
					t.Fatalf("step %d: psn %d is new here, a duplicate in the reference", step, fr.pkt.PSN)
				}
				accepted[fr.msg]++
				last, size, complete := a.add(nil, fr.pkt)
				rlast, rsize, rcomplete := ref.add(fr.pkt)
				if complete != rcomplete || last != rlast || size != rsize {
					t.Fatalf("step %d: add(psn %d) = (%v, %d, %v), reference (%v, %d, %v)",
						step, fr.pkt.PSN, last != nil, size, complete, rlast != nil, rsize, rcomplete)
				}
				if complete {
					if completed[fr.msg] {
						t.Fatalf("message %d completed twice", fr.msg)
					}
					if skipped[fr.msg] {
						t.Fatalf("message %d completed after one of its slots was skipped", fr.msg)
					}
					completed[fr.msg] = true
					if !last.EndOfMsg || last.PSN != fragsOf[fr.msg][len(fragsOf[fr.msg])-1] {
						t.Fatalf("message %d completed by wrong fragment psn=%d", fr.msg, last.PSN)
					}
					wantSize := len(fragsOf[fr.msg]) * (100 + fr.msg)
					if size != wantSize {
						t.Fatalf("message %d size %d, want %d", fr.msg, size, wantSize)
					}
					for _, p := range fragsOf[fr.msg] {
						if !a.isDup(p) {
							t.Fatalf("message %d completed but psn %d not marked consumed", fr.msg, p)
						}
					}
				}
			}
			if a.doneBase < prevBase {
				t.Fatalf("doneBase moved backward: %d -> %d", prevBase, a.doneBase)
			}
			prevBase = a.doneBase
			if a.doneBase != ref.doneBase || *freed != ref.freed {
				t.Fatalf("step %d: doneBase %d, freed %d; reference %d, %d", step, a.doneBase, *freed, ref.doneBase, ref.freed)
			}
			for p := uint32(0); p < universe+2; p++ {
				if a.isDup(p) != ref.isDup(p) {
					t.Fatalf("step %d: isDup(%d) = %v, reference %v", step, p, a.isDup(p), ref.isDup(p))
				}
			}
			// isDup reads doneBase and the two maps' key sets, so equal sets
			// make it agree on every PSN, the flood ranges included.
			if len(a.done) != len(ref.done) || len(a.frags) != len(ref.frags) {
				t.Fatalf("step %d: %d done marks and %d fragments, reference %d and %d",
					step, len(a.done), len(a.frags), len(ref.done), len(ref.frags))
			}
			for p := range ref.done {
				if !a.done[p] {
					t.Fatalf("step %d: psn %d done in the reference only", step, p)
				}
			}
			for p, f := range ref.frags {
				if a.frags[p] != f {
					t.Fatalf("step %d: psn %d buffered in the reference only", step, p)
				}
			}
			if a.idle() != (len(ref.frags) == 0 && len(ref.done) == 0) {
				t.Fatalf("step %d: idle() = %v, reference holds %d fragments and %d done marks", step, a.idle(), len(ref.frags), len(ref.done))
			}
		}
		for m := 0; m < msgCount; m++ {
			if !skipped[m] && accepted[m] == len(fragsOf[m]) && !completed[m] {
				t.Fatalf("message %d fully received (%d fragments, never skipped) yet never completed",
					m, accepted[m])
			}
		}
	})
}
