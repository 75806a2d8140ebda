package tpcc

import (
	"testing"

	"onepipe/internal/sim"
)

// comparable reports whether two version vectors are ordered (one
// dominates the other component-wise) — the consistency property of
// snapshot reads over a total order.
func comparableVec(a, b []uint64) bool {
	le, ge := true, true
	for i := range a {
		if a[i] > b[i] {
			le = false
		}
		if a[i] < b[i] {
			ge = false
		}
	}
	return le || ge
}

func runSnapshots(t *testing.T, mode Mode) [][]uint64 {
	t.Helper()
	b := deploy(t, mode, 2, nil)
	b.SnapshotFrac = 0.3
	var snaps [][]uint64
	b.OnSnapshot = func(v []uint64) { snaps = append(snaps, v) }
	b.Run(300*sim.Microsecond, 2*sim.Millisecond)
	return snaps
}

func TestSnapshotReadsConsistentUnderOnePipe(t *testing.T) {
	snaps := runSnapshots(t, Mode1Pipe)
	if len(snaps) < 50 {
		t.Fatalf("only %d snapshots completed", len(snaps))
	}
	// Every pair of snapshot vectors must be comparable: the total order
	// serializes snapshots against all Payment writes, so no snapshot can
	// see warehouse A ahead of another snapshot while seeing B behind it.
	bad := 0
	for i := 0; i < len(snaps); i++ {
		for j := i + 1; j < len(snaps); j++ {
			if !comparableVec(snaps[i], snaps[j]) {
				bad++
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d incomparable snapshot pairs under 1Pipe (must be 0)", bad)
	}
}

func TestSnapshotReadsTornUnderNonTX(t *testing.T) {
	snaps := runSnapshots(t, ModeNonTX)
	if len(snaps) < 50 {
		t.Fatalf("only %d snapshots completed", len(snaps))
	}
	bad := 0
	for i := 0; i < len(snaps); i++ {
		for j := i + 1; j < len(snaps); j++ {
			if !comparableVec(snaps[i], snaps[j]) {
				bad++
			}
		}
	}
	if bad == 0 {
		t.Skip("no torn snapshot observed under NonTX this run (possible but unlikely)")
	}
	t.Logf("NonTX: %d incomparable snapshot pairs out of %d snapshots", bad, len(snaps))
}

func TestSnapshotFracZeroUnchanged(t *testing.T) {
	b := deploy(t, Mode1Pipe, 2, nil)
	called := false
	b.OnSnapshot = func([]uint64) { called = true }
	b.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if called {
		t.Fatal("snapshots generated with SnapshotFrac=0")
	}
}
