package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

func TestAckBatchingReducesAckPackets(t *testing.T) {
	run := func(flush sim.Time) (acks, delivered uint64) {
		cl := smallNet(t, 1, nil)
		for i := range cl.Hosts {
			cl.Hosts[i].Cfg.AckFlush = flush
		}
		cl.Procs[1].OnDeliver = func(Delivery) {}
		eng := cl.Net.Eng
		eng.At(50*sim.Microsecond, func() {
			for i := 0; i < 200; i++ {
				// Frame coalescing would collapse the 200 sends into a
				// handful of multi-message frames (one ACK each), hiding
				// the ACK-side batching this test isolates.
				cl.Proc(0).SendOpts([]Message{{Dst: 1, Size: 64}}, SendOptions{Reliable: true, NoBatch: true})
			}
		})
		cl.Run(5 * sim.Millisecond)
		return cl.Net.Stats.PktsByKind[netsim.KindAck], cl.Hosts[1].Stats.MsgsDelivered
	}
	acksBatched, d1 := run(1 * sim.Microsecond)
	acksPer, d2 := run(0)
	if d1 != 200 || d2 != 200 {
		t.Fatalf("delivered %d/%d, want 200/200", d1, d2)
	}
	if acksPer < 200 {
		t.Fatalf("per-packet mode sent only %d acks", acksPer)
	}
	if acksBatched*4 > acksPer {
		t.Fatalf("batching barely helped: %d vs %d ack packets", acksBatched, acksPer)
	}
}

func TestAckBatchFlushesOnTimerWhenIdle(t *testing.T) {
	// A single message must still be ACKed (and committed) promptly even
	// though the batch never fills.
	cl := smallNet(t, 1, nil)
	var at sim.Time
	cl.Procs[1].OnDeliver = func(Delivery) { at = cl.Net.Eng.Now() }
	var sent sim.Time
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		sent = cl.Net.Eng.Now()
		cl.Proc(0).SendReliable([]Message{{Dst: 1, Size: 64}})
	})
	cl.Run(2 * sim.Millisecond)
	if at == 0 {
		t.Fatal("single reliable message never delivered under batching")
	}
	if at-sent > 20*sim.Microsecond {
		t.Fatalf("lone reliable message took %v (batching stalled the ACK?)", at-sent)
	}
}

func TestECNEchoSurvivesBatching(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) {
		c.ECNThreshold = 500 * sim.Nanosecond
	})
	cl.Procs[1].OnDeliver = func(Delivery) {}
	eng := cl.Net.Eng
	for _, src := range []int{0, 2, 3} {
		src := src
		sim.NewTicker(eng, 150*sim.Nanosecond, 0, func() {
			if eng.Now() > 800*sim.Microsecond {
				return
			}
			cl.Procs[src].SendReliable([]Message{{Dst: 1, Size: 4096}})
		})
	}
	cl.Run(2 * sim.Millisecond)
	c := cl.Hosts[0].findConn(0, 1)
	if c == nil || c.alpha == 0 {
		t.Fatal("DCTCP never saw ECN marks through batched ACKs")
	}
}
