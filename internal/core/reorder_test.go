package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// mkPending builds a pending with a unique (ts, src, psn) key drawn from a
// small key space so ties on ts and on (ts, src) are common.
func mkPending(rng *rand.Rand, psn uint32) *pending {
	return &pending{
		ts:   sim.Time(rng.Intn(64)),
		src:  netsim.ProcID(rng.Intn(8)),
		psn:  psn,
		size: 64 + rng.Intn(256),
	}
}

// TestReorderBufEquivalence is the reorder buffer's correctness property:
// for random interleavings of push, pop and filter, a plane's deliveryHeap
// holds and pops exactly what a sorted slice on the (ts, src, psn) key does
// (its comparison is written out here, not pendingLess).
// Trial 0 first buffers 1 200 entries, deeper than the 64-process incast
// drives one plane.
func TestReorderBufEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var (
			b   deliveryHeap
			ref []*pending
			psn uint32
		)
		push := func() {
			p := mkPending(rng, psn)
			psn++
			b.push(p)
			i, _ := slices.BinarySearchFunc(ref, p, func(a, p *pending) int {
				return cmp.Or(cmp.Compare(a.ts, p.ts), cmp.Compare(a.src, p.src), cmp.Compare(a.psn, p.psn))
			})
			ref = slices.Insert(ref, i, p)
		}
		if trial == 0 {
			for range 1200 {
				push()
			}
		}
		for step := 0; step < 400 || len(ref) > 0; step++ {
			r := rng.Intn(20)
			switch {
			case step < 400 && r < 12:
				push()
			case step < 400 && r == 19:
				// The failure-discard shape: one sender's entries above a
				// timestamp go.
				victim, fts := netsim.ProcID(rng.Intn(8)), sim.Time(rng.Intn(64))
				drop := func(p *pending) bool { return p.src == victim && p.ts > fts }
				b.filter(drop)
				ref = slices.DeleteFunc(ref, drop)
			case len(ref) > 0:
				if got := b.top(); got != ref[0] {
					t.Fatalf("trial %d step %d: top (%d,%d,%d), want (%d,%d,%d)", trial, step,
						got.ts, got.src, got.psn, ref[0].ts, ref[0].src, ref[0].psn)
				}
				if got := b.pop(); got != ref[0] {
					t.Fatalf("trial %d step %d: pop (%d,%d,%d), want (%d,%d,%d)", trial, step,
						got.ts, got.src, got.psn, ref[0].ts, ref[0].src, ref[0].psn)
				}
				ref = ref[1:]
			}
			if b.Len() != len(ref) {
				t.Fatalf("trial %d step %d: %d buffered, want %d", trial, step, b.Len(), len(ref))
			}
		}
	}
}

// TestReorderBufFilterEquivalence checks filter (the failure-discard path)
// on its own: after dropping one sender's entries from a full deliveryHeap,
// the survivors drain in the order of a sorted slice with the same entries
// deleted.
func TestReorderBufFilterEquivalence(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var (
			b   deliveryHeap
			ref []*pending
		)
		for i := 0; i < 120; i++ {
			p := mkPending(rng, uint32(i))
			b.push(p)
			ref = append(ref, p)
		}
		slices.SortFunc(ref, func(a, p *pending) int {
			return cmp.Or(cmp.Compare(a.ts, p.ts), cmp.Compare(a.src, p.src), cmp.Compare(a.psn, p.psn))
		})
		victim := netsim.ProcID(rng.Intn(8))
		drop := func(p *pending) bool { return p.src == victim }
		b.filter(drop)
		ref = slices.DeleteFunc(ref, drop)
		if b.Len() != len(ref) {
			t.Fatalf("trial %d: %d survivors, want %d", trial, b.Len(), len(ref))
		}
		for i := range ref {
			if got := b.pop(); got != ref[i] {
				t.Fatalf("trial %d: survivor %d = (%d,%d,%d), want (%d,%d,%d)", trial, i,
					got.ts, got.src, got.psn, ref[i].ts, ref[i].src, ref[i].psn)
			}
		}
	}
}

// TestReorderBufHotPathAllocs pins steady-state push and pop at zero
// allocations: both touch only the pre-grown heap slice.
func TestReorderBufHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is meaningless under -short race harnesses")
	}
	const n = 64
	var b deliveryHeap
	ps := make([]*pending, n)
	for i := range ps {
		ps[i] = &pending{ts: sim.Time((i * 7) % 31), src: netsim.ProcID(i % 5), psn: uint32(i), size: 100}
	}
	// Pre-grow the heap slice: steady state reuses capacity.
	for _, p := range ps {
		b.push(p)
	}
	for b.Len() > 0 {
		b.pop()
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, p := range ps {
			b.push(p)
		}
		for b.Len() > 0 {
			b.pop()
		}
	})
	if avg != 0 {
		t.Fatalf("push/pop path allocates %.1f per cycle, want 0", avg)
	}
}
