package core

import (
	"math/rand"
	"testing"

	"onepipe/internal/sim"
)

// TestHeldFloorMatchesBruteForce drives holdSet / holdClear with a seeded
// sequence of new holds, re-sets (same, higher, lower timestamp) and clears
// over 32 conns, timestamps drawn from a small range so equal ones — ties on
// the floor included — are common, and compares the cached floor and the
// held list with a brute-force model after every step; a conn that is not
// held must carry index 0.
func TestHeldFloorMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &Host{}
		conns := make([]conn, 32)
		for i := range conns {
			conns[i].work = new(connWork) // holds are kept on attached parts
		}
		model := make(map[*conn]sim.Time)
		for step := 0; step < 4000; step++ {
			c := &conns[rng.Intn(len(conns))]
			switch op := rng.Intn(8); {
			case op < 3:
				h.holdClear(c)
				delete(model, c)
			case op == 3 && model[c] != 0:
				// Move an existing hold by -2..+2: same, higher, lower.
				ts := model[c] + sim.Time(rng.Intn(5)) - 2
				if ts < 1 {
					ts = 1
				}
				h.holdSet(c, ts)
				model[c] = ts
			default:
				ts := sim.Time(1 + rng.Intn(12))
				h.holdSet(c, ts)
				model[c] = ts
			}
			var want sim.Time
			for _, ts := range model {
				if want == 0 || ts < want {
					want = ts
				}
			}
			if h.heldFloor != want {
				t.Fatalf("seed %d step %d: heldFloor %d, brute force %d (%d held)", seed, step, h.heldFloor, want, len(model))
			}
			for i := range conns {
				if c := &conns[i]; model[c] == 0 && c.work.holdIdx != 0 {
					t.Fatalf("seed %d step %d: released conn %d keeps index %d", seed, step, i, c.work.holdIdx)
				}
			}
			if len(h.held) != len(model) {
				t.Fatalf("seed %d step %d: %d conns held, model has %d", seed, step, len(h.held), len(model))
			}
			for i, e := range h.held {
				if int(e.c.work.holdIdx) != i+1 || e.ts != model[e.c] {
					t.Fatalf("seed %d step %d: entry %d has index %d and holds %d, model %d", seed, step, i, e.c.work.holdIdx, e.ts, model[e.c])
				}
			}
		}
	}
}
