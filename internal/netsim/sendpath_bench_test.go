package netsim

import (
	"testing"

	"onepipe/internal/race"
	"onepipe/internal/topology"
)

// sendPathNet builds a small quiescent fabric (no beacons, no scanners) so
// the engine drains completely after each injected packet: what remains is
// exactly the per-packet data-plane path — host delay, per-hop transmit and
// receive events, ECMP routing, final host delivery.
func sendPathNet() (*Network, *int) {
	cfg := DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	cfg.Clock.MaxOffset = 0
	cfg.Clock.MaxDriftPPM = 0
	cfg.DisableBeacons = true
	n := New(cfg)
	delivered := new(int)
	n.AttachHost(7, func(p *Packet) {
		*delivered++
		n.pool.Put(p)
	})
	return n, delivered
}

func sendOne(n *Network) {
	pkt := n.pool.Get()
	pkt.Kind, pkt.Src, pkt.Dst = KindData, 0, 7
	pkt.Size = 1024 + HeaderBytes
	pkt.MsgTS = n.Eng.Now()
	n.SendFromHost(0, pkt)
	n.Eng.Run()
}

// BenchmarkSendPath measures one best-effort packet traversing the full
// simulated path (host 0 -> ToR -> spine/core -> ToR -> host 7), all hops
// included, recycled through the fabric's list end to end.
func BenchmarkSendPath(b *testing.B) {
	n, delivered := sendPathNet()
	sendOne(n) // warm the route and the event heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendOne(n)
	}
	b.StopTimer()
	if *delivered != b.N+1 {
		b.Fatalf("delivered %d, want %d", *delivered, b.N+1)
	}
}

// TestSendPathAllocs pins the steady-state zero-allocation property of the
// simulated data plane: packet structs come from the pool, every hop is
// scheduled through the engine's capture-free At2 path, and delivery
// releases the packet. One allocation per packet here costs millions per
// figure regeneration.
func TestSendPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	n, delivered := sendPathNet()
	for i := 0; i < 256; i++ {
		sendOne(n) // grow the event heap, link state and pools to steady state
	}
	if avg := testing.AllocsPerRun(500, func() { sendOne(n) }); avg != 0 {
		t.Errorf("send path: %v allocs/op, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("no packets delivered")
	}
}
