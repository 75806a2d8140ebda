package core

import (
	"testing"

	"onepipe/internal/sim"
)

// BenchmarkBestEffortRound is one best-effort message from send to ACK on a
// warm simPair, beacons and all: the simulated send path's ns and
// allocations per message, timers included. Core lets go of a send's
// message slice once its last ACK is in, so every round reuses one.
func BenchmarkBestEffortRound(b *testing.B) {
	cl := simPair(b)
	delivered := 0
	cl.Proc(1).OnDeliverBatch = func(ds []Delivery) { delivered += len(ds) }
	msgs := []Message{{Dst: 1, Size: 64}}
	round := func() {
		if err := cl.Proc(0).Send(msgs); err != nil {
			b.Fatal(err)
		}
		cl.Run(4 * cl.cfg.BeaconInterval)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	before := delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if delivered-before != b.N {
		b.Fatalf("%d of %d delivered", delivered-before, b.N)
	}
}

// BenchmarkFirstContact is TestFirstContactAllocs' round: one best-effort
// message to a process its sender has never talked to, through delivery and
// the ACK, four beacon intervals of both hosts included — the per-pair cost
// of connection state. A contactPair serves 4096 first contacts; the next
// one is built with the timer stopped.
func BenchmarkFirstContact(b *testing.B) {
	const peers = 4096
	cfg := DefaultConfig()
	var (
		eng       *sim.Engine
		src       *Proc
		msgs      [][]Message
		delivered *int
		next      = peers
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if next == peers {
			b.StopTimer()
			eng, _, src, msgs, delivered = contactPair(cfg, peers)
			next = 0
			b.StartTimer()
		}
		if err := src.Send(msgs[next]); err != nil {
			b.Fatal(err)
		}
		next++
		eng.RunFor(4 * cfg.BeaconInterval)
		if *delivered != next {
			b.Fatalf("%d of %d delivered", *delivered, next)
		}
	}
}

// BenchmarkIdlePair reports idlePairHeap's live heap per settled pair as
// B/pair, with the number of pairs measured; ns/op is one whole
// measurement.
func BenchmarkIdlePair(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per, _ = idlePairHeap(b, DefaultConfig())
	}
	b.ReportMetric(per, "B/pair")
	b.ReportMetric(idlePairs, "pairs")
}
