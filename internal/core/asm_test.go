package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

func mkFrag(psn uint32, fragIdx uint16, eom bool, msgTS sim.Time) *netsim.Packet {
	return &netsim.Packet{
		Kind: netsim.KindData, PSN: psn, FragIdx: fragIdx, EndOfMsg: eom,
		MsgTS: msgTS, Size: 100 + netsim.HeaderBytes,
	}
}

// countReleases swaps releaseFrag for a counter until the test ends, for
// tests that drive a buffer with packets they keep using.
func countReleases(t testing.TB) *int {
	n := new(int)
	prev := releaseFrag
	releaseFrag = func(*netsim.Pool, *netsim.Packet) { *n++ }
	t.Cleanup(func() { releaseFrag = prev })
	return n
}

func TestAsmSingleFragment(t *testing.T) {
	a := &asmBuf{}
	last, size, ok := a.add(nil, mkFrag(0, 0, true, 1))
	if !ok || last == nil || size != 100 {
		t.Fatalf("single fragment not complete: ok=%v size=%d", ok, size)
	}
	if !a.isDup(0) {
		t.Fatal("consumed PSN not recognized as duplicate")
	}
}

func TestAsmOutOfOrderFragments(t *testing.T) {
	a := &asmBuf{}
	// 3-fragment message arriving 2,0,1.
	if _, _, ok := a.add(nil, mkFrag(2, 2, true, 5)); ok {
		t.Fatal("completed with missing fragments")
	}
	if _, _, ok := a.add(nil, mkFrag(0, 0, false, 5)); ok {
		t.Fatal("completed with missing middle fragment")
	}
	last, size, ok := a.add(nil, mkFrag(1, 1, false, 5))
	if !ok || size != 300 {
		t.Fatalf("3-fragment message: ok=%v size=%d", ok, size)
	}
	if !last.EndOfMsg {
		t.Fatal("carrier is not the end-of-message fragment")
	}
}

func TestAsmHoleDoesNotBlockLaterMessages(t *testing.T) {
	a := &asmBuf{capped: true}
	// PSN 0 lost forever; messages at PSN 1 and 2 must still complete.
	if _, _, ok := a.add(nil, mkFrag(1, 0, true, 2)); !ok {
		t.Fatal("later message blocked by hole")
	}
	if _, _, ok := a.add(nil, mkFrag(2, 0, true, 3)); !ok {
		t.Fatal("second later message blocked by hole")
	}
}

func TestAsmSkipConsumesWholeMessage(t *testing.T) {
	a := &asmBuf{capped: true}
	a.add(nil, mkFrag(0, 0, false, 1)) // first fragment buffered
	a.skip(nil, mkFrag(1, 1, false, 1))
	// Both positions consumed; the late EOM is a dup.
	if !a.isDup(0) || !a.isDup(1) {
		t.Fatal("skip did not consume buffered siblings")
	}
}

func TestAsmDoneCapForgetsOldHoles(t *testing.T) {
	a := &asmBuf{capped: true}
	// Leave a hole at 0, then complete many messages above it.
	for psn := uint32(1); psn <= asmDoneCap+100; psn++ {
		if _, _, ok := a.add(nil, mkFrag(psn, 0, true, sim.Time(psn))); !ok {
			t.Fatalf("message at %d blocked", psn)
		}
	}
	if len(a.done) > asmDoneCap {
		t.Fatalf("done set grew to %d despite cap", len(a.done))
	}
	// The forgotten hole's late arrival registers as a duplicate.
	if !a.isDup(0) {
		t.Fatal("forgotten hole not treated as duplicate")
	}
}

// TestAsmCappedPathFreesStrandedFrags is the pool-leak regression for the
// capped force-advance: a partial message buffered below a reception hole
// (frag 0 of a 2-fragment message whose tail never arrives) is stranded when
// doneBase is forced past it by the done-set cap. The force-advance must
// drop AND free the fragment — before the fix it only advanced doneBase,
// so the fragment stayed in frags forever (unreachable: isDup reports its
// PSN consumed) and its pooled packet was never returned.
func TestAsmCappedPathFreesStrandedFrags(t *testing.T) {
	a := &asmBuf{capped: true}
	freed := countReleases(t)
	// Buffer the head of an incomplete message at PSN 0 (its EndOfMsg frag
	// is lost), leaving a reception hole that parks doneBase at 0.
	if _, _, ok := a.add(nil, mkFrag(0, 0, false, 1)); ok {
		t.Fatal("incomplete message completed")
	}
	// Complete single-frag messages above it until the cap forces doneBase
	// across the hole. Each completion frees nothing itself (the final
	// fragment is returned to the caller), so every release below is a
	// force-advance drop.
	for psn := uint32(1); psn <= asmDoneCap+100; psn++ {
		if _, _, ok := a.add(nil, mkFrag(psn, 0, true, sim.Time(psn))); !ok {
			t.Fatalf("message at %d blocked", psn)
		}
	}
	if len(a.frags) != 0 {
		t.Fatalf("%d stranded fragment(s) survived the forced doneBase advance (pool leak)", len(a.frags))
	}
	if *freed != 1 {
		t.Fatalf("stranded fragment freed %d times, want exactly 1 (pool balance)", *freed)
	}
	if a.doneBase <= 0 || !a.isDup(0) {
		t.Fatalf("doneBase %d did not pass the dropped slot", a.doneBase)
	}
}

// Property: for any set of messages fragmented and delivered in any order,
// every message completes exactly once with its full size, regardless of
// interleaving.
func TestAsmReassemblyProperty(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := &asmBuf{}
		type frag struct {
			pkt  *netsim.Packet
			msg  int
			want int
		}
		var frags []frag
		psn := uint32(0)
		wants := make([]int, len(sizes))
		for m, s := range sizes {
			nf := int(s%5) + 1
			wants[m] = nf * 100
			for fIdx := 0; fIdx < nf; fIdx++ {
				frags = append(frags, frag{
					pkt: mkFrag(psn, uint16(fIdx), fIdx == nf-1, sim.Time(m+1)),
					msg: m, want: nf * 100,
				})
				psn++
			}
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		completed := make(map[int]int)
		for _, fr := range frags {
			if last, size, ok := a.add(nil, fr.pkt); ok {
				m := int(last.MsgTS) - 1
				completed[m] = size
			}
		}
		if len(completed) != len(sizes) {
			return false
		}
		for m, want := range wants {
			if completed[m] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: deliveryHeap pops in (ts, src, psn) order for arbitrary input.
func TestDeliveryHeapOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 500 {
			raw = raw[:500]
		}
		var h deliveryHeap
		var want []*pending
		for _, r := range raw {
			p := &pending{
				ts:  sim.Time(r % 97),
				src: netsim.ProcID(r / 97 % 13),
				psn: r,
			}
			want = append(want, p)
			h.push(p)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.psn < b.psn
		})
		for _, w := range want {
			got := h.pop()
			if got.ts != w.ts || got.src != w.src || got.psn != w.psn {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapReinitAfterFilter(t *testing.T) {
	var h deliveryHeap
	for i := 20; i > 0; i-- {
		h.push(&pending{ts: sim.Time(i), src: 0, psn: uint32(i)})
	}
	// Filter out even timestamps (the discard path).
	h.filter(func(p *pending) bool { return p.ts%2 == 0 })
	last := sim.Time(0)
	for h.Len() > 0 {
		p := h.pop()
		if p.ts < last {
			t.Fatal("heap order broken after reinit")
		}
		if p.ts%2 == 0 {
			t.Fatal("filtered element survived")
		}
		last = p.ts
	}
}
