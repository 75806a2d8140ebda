package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// The two comparisons at the edges of §5.1 and §5.2 that a random chaos
// sweep almost never lands on: a reliable message exactly at the commit
// barrier is covered by it (ts <= barrierC), and a failed sender's message
// exactly at its failure timestamp is below the cut (only ts > fts goes).

// TestReliableReleasedAtCommitBarrier: a buffered reliable message is
// delivered once the commit barrier reaches its timestamp, not one tick
// later.
func TestReliableReleasedAtCommitBarrier(t *testing.T) {
	cl := smallNet(t, 1, nil)
	h := cl.Hosts[0]
	const ts = sim.Millisecond
	h.enqueuePending(ts, 3, 0, 0, "m", 64, true, 0, 0)
	h.updateBarriers(0, ts-1)
	if h.relQ.Len() != 1 {
		t.Fatalf("delivered at commit barrier %v, below its ts %v", ts-1, ts)
	}
	h.updateBarriers(0, ts)
	if h.relQ.Len() != 0 {
		t.Fatalf("still buffered with the commit barrier at its ts %v", ts)
	}
}

// TestDiscardKeepsFailureTimestamp: a failed sender's buffered messages
// above its failure timestamp are discarded and the one at it is kept.
func TestDiscardKeepsFailureTimestamp(t *testing.T) {
	cl := smallNet(t, 1, nil)
	h := cl.Hosts[0]
	const fts = sim.Millisecond
	for _, ts := range []sim.Time{fts - 1, fts, fts + 1} {
		h.enqueuePending(ts, 3, 0, uint32(ts), "m", 64, true, 0, 0)
	}
	h.discardFrom(map[netsim.ProcID]sim.Time{3: fts})
	if h.relQ.Len() != 2 || h.relQ.top().ts != fts-1 {
		t.Fatalf("%d buffered after the discard, want the 2 at or below fts", h.relQ.Len())
	}
	h.relQ.pop()
	if got := h.relQ.top().ts; got != fts {
		t.Fatalf("kept ts %v, want fts %v", got, fts)
	}
}
