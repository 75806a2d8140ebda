package netsim

import (
	"testing"

	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// testNet builds a small network where every host beacons its clock on its
// uplink each beacon interval, the way lib1pipe's polling thread does.
func testNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := New(cfg)
	for h := 0; h < len(n.G.Hosts); h++ {
		h := h
		sim.NewTicker(n.Eng, cfg.BeaconInterval, 0, func() {
			now := n.Clocks[h].Now()
			n.SendFromHost(h, &Packet{Kind: KindBeacon, BarrierBE: now, BarrierC: now, Size: BeaconBytes})
		})
	}
	return n
}

func smallCfg() Config {
	cfg := DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	cfg.Clock.MaxOffset = 0 // perfect clocks unless a test opts in
	cfg.Clock.MaxDriftPPM = 0
	return cfg
}

func TestDataDelivered(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	var got []*Packet
	n.AttachHost(7, func(p *Packet) {
		if p.Kind == KindData {
			got = append(got, p)
		}
	})
	pkt := &Packet{Kind: KindData, Src: 0, Dst: 7, MsgTS: 100, BarrierBE: 100, Size: 128, Payload: "hello"}
	n.SendFromHost(0, pkt)
	n.Eng.RunFor(100 * sim.Microsecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0].Payload != "hello" || got[0].MsgTS != 100 {
		t.Fatalf("wrong packet delivered: %v", got[0])
	}
}

func TestCrossPodLatencyHigherThanIntraRack(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	var at [32]sim.Time
	for _, h := range []int{1, 2, 7} { // same rack, same pod, cross pod
		h := h
		n.AttachHost(h, func(p *Packet) {
			if p.Kind == KindData {
				at[h] = n.Eng.Now() - p.SentAt
			}
		})
	}
	for _, h := range []int{1, 2, 7} {
		n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: ProcID(h), MsgTS: 1, BarrierBE: 1, Size: 128})
	}
	n.Eng.RunFor(100 * sim.Microsecond)
	if !(at[1] < at[2] && at[2] < at[7]) {
		t.Fatalf("latency ordering wrong: rack=%v pod=%v xpod=%v", at[1], at[2], at[7])
	}
	if at[1] < 1*sim.Microsecond || at[1] > 3*sim.Microsecond {
		t.Fatalf("intra-rack one-way latency %v outside calibrated 1-3us", at[1])
	}
}

// The core barrier invariant: once a host has seen barrier B on its
// downlink, no later-arriving data packet carries a message timestamp < B.
func TestBarrierInvariant(t *testing.T) {
	for _, mode := range []Mode{ModeChip, ModeSwitchCPU, ModeHostDelegate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallCfg()
			cfg.Mode = mode
			cfg.Clock = DefaultConfig(cfg.Topo, 1).Clock // realistic skew
			// FIFO-clamped delay variance on top of uniform loss.
			cfg.Impair = Uniform(Impairment{Loss: 1e-3, Jitter: 2 * sim.Microsecond})
			maxBarrier, viol := probeBarriers(t, cfg)
			if viol != 0 {
				t.Errorf("%d data packets arrived below a seen barrier", viol)
			}
			for h := range maxBarrier {
				if maxBarrier[h] == 0 {
					t.Errorf("host %d: barrier never advanced", h)
				}
			}
		})
	}
}

func TestBarrierAdvancesWhenIdle(t *testing.T) {
	// With no data traffic at all, beacons alone must advance every host's
	// barrier to within a few beacon intervals of now.
	cfg := smallCfg()
	n := testNet(t, cfg)
	nh := len(n.G.Hosts)
	maxBarrier := make([]sim.Time, nh)
	for h := 0; h < nh; h++ {
		h := h
		n.AttachHost(h, func(p *Packet) {
			if p.BarrierBE > maxBarrier[h] {
				maxBarrier[h] = p.BarrierBE
			}
		})
	}
	n.Eng.RunUntil(1 * sim.Millisecond)
	for h := 0; h < nh; h++ {
		lag := 1*sim.Millisecond - maxBarrier[h]
		if lag > 8*cfg.BeaconInterval {
			t.Errorf("host %d: idle barrier lags by %v", h, lag)
		}
	}
}

func TestOutOfOrderArrivalsWithSpraying(t *testing.T) {
	// §4.1 motivation: with multiple senders to one receiver, a large
	// fraction of arrivals are out of timestamp order (the paper measured
	// 57% with 8 senders).
	cfg := DefaultConfig(topology.Testbed(), 1)
	n := testNet(t, cfg)
	var total, ooo int
	var lastTS sim.Time
	n.AttachHost(31, func(p *Packet) {
		if p.Kind != KindData {
			return
		}
		total++
		if p.MsgTS < lastTS {
			ooo++
		} else {
			lastTS = p.MsgTS
		}
	})
	for h := 0; h < 8; h++ {
		h := h
		sim.NewTicker(n.Eng, 200*sim.Nanosecond, 0, func() {
			ts := n.Clocks[h].Now()
			n.SendFromHost(h, &Packet{Kind: KindData, Src: ProcID(h), Dst: 31,
				MsgTS: ts, BarrierBE: ts, Size: 1024})
		})
	}
	n.Eng.RunUntil(2 * sim.Millisecond)
	if total == 0 {
		t.Fatal("no deliveries")
	}
	frac := float64(ooo) / float64(total)
	if frac < 0.05 {
		t.Errorf("out-of-order fraction %.2f suspiciously low for concurrent senders", frac)
	}
}

func TestUniformLossDropsPackets(t *testing.T) {
	cfg := smallCfg()
	cfg.Impair = UniformLoss(0.5)
	n := testNet(t, cfg)
	delivered := 0
	n.AttachHost(1, func(p *Packet) {
		if p.Kind == KindData {
			delivered++
		}
	})
	const sent = 500
	for i := 0; i < sent; i++ {
		i := i
		n.Eng.At(sim.Time(i)*sim.Microsecond, func() {
			n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 1, MsgTS: sim.Time(i), BarrierBE: sim.Time(i), Size: 128})
		})
	}
	n.Eng.RunUntil(600 * sim.Microsecond)
	// Intra-rack path has 3 links; survival (1-0.5)^3 = 12.5%.
	if delivered == 0 || delivered > sent/3 {
		t.Fatalf("delivered %d/%d with 50%% per-link loss", delivered, sent)
	}
	if n.Stats.CorruptDrop == 0 {
		t.Fatal("no corruption drops recorded")
	}
}

func TestECNMarkingUnderCongestion(t *testing.T) {
	cfg := smallCfg()
	cfg.ECNThreshold = 1 * sim.Microsecond
	n := testNet(t, cfg)
	marked := 0
	n.AttachHost(1, func(p *Packet) {
		if p.Kind == KindData && p.ECN {
			marked++
		}
	})
	// Two hosts blast the same destination's downlink.
	for _, src := range []int{0, 2} {
		src := src
		sim.NewTicker(n.Eng, 100*sim.Nanosecond, 0, func() {
			ts := n.Clocks[src].Now()
			n.SendFromHost(src, &Packet{Kind: KindData, Src: ProcID(src), Dst: 1,
				MsgTS: ts, BarrierBE: ts, Size: 4096})
		})
	}
	n.Eng.RunUntil(2 * sim.Millisecond)
	if marked == 0 {
		t.Fatal("no ECN marks under 2:1 incast")
	}
}

func TestQueueLimitTailDrops(t *testing.T) {
	cfg := smallCfg()
	cfg.QueueLimit = 2 * sim.Microsecond
	n := testNet(t, cfg)
	for _, src := range []int{0, 2} {
		src := src
		sim.NewTicker(n.Eng, 100*sim.Nanosecond, 0, func() {
			ts := n.Clocks[src].Now()
			n.SendFromHost(src, &Packet{Kind: KindData, Src: ProcID(src), Dst: 1,
				MsgTS: ts, BarrierBE: ts, Size: 4096})
		})
	}
	n.Eng.RunUntil(2 * sim.Millisecond)
	if n.Stats.QueueDrop == 0 {
		t.Fatal("no tail drops with tiny queue limit")
	}
}

func TestDeadLinkDetectedAndBarrierResumes(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	var deadLinks []topology.Link
	n.OnLinkDead = func(l topology.Link) { deadLinks = append(deadLinks, l) }
	var barrier sim.Time
	n.AttachHost(1, func(p *Packet) {
		if p.BarrierBE > barrier {
			barrier = p.BarrierBE
		}
	})
	n.Eng.RunUntil(500 * sim.Microsecond)
	// Kill host 0: its uplink goes silent; barrier at host 1 must stall for
	// the dead-link timeout, then resume.
	n.G.KillNode(n.G.Host(0))
	n.Eng.RunUntil(520 * sim.Microsecond)
	stalled := barrier
	n.Eng.RunUntil(540 * sim.Microsecond) // beyond 30us timeout
	if len(deadLinks) == 0 {
		t.Fatal("dead link never detected")
	}
	n.Eng.RunUntil(800 * sim.Microsecond)
	if barrier <= stalled {
		t.Fatalf("barrier did not resume after dead-link removal: %v -> %v", stalled, barrier)
	}
	lag := 800*sim.Microsecond - barrier
	if lag > 10*cfg.BeaconInterval {
		t.Fatalf("barrier lag %v after recovery too high", lag)
	}
}

func TestOversubSlowsFabric(t *testing.T) {
	measure := func(oversub float64) sim.Time {
		cfg := smallCfg()
		cfg.Oversub = oversub
		n := testNet(t, cfg)
		var last sim.Time
		n.AttachHost(7, func(p *Packet) {
			if p.Kind == KindData {
				last = n.Eng.Now() - p.SentAt
			}
		})
		// Saturate host 0 -> host 7 (cross-pod) with big packets.
		sim.NewTicker(n.Eng, 150*sim.Nanosecond, 0, func() {
			ts := n.Clocks[0].Now()
			n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 7, MsgTS: ts, BarrierBE: ts, Size: 4096})
		})
		n.Eng.RunUntil(1 * sim.Millisecond)
		return last
	}
	if a, b := measure(1), measure(6); b <= a {
		t.Fatalf("6:1 oversubscription latency %v not above 1:1 latency %v", b, a)
	}
}

func TestBeaconOverheadFraction(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	n.Eng.RunUntil(5 * sim.Millisecond)
	if n.Stats.PktsByKind[KindBeacon] == 0 {
		t.Fatal("no beacons sent")
	}
	if f := n.Stats.BeaconBandwidthFraction(); f != 1 {
		t.Fatalf("idle network beacon fraction = %v, want 1 (only beacons)", f)
	}
}

func TestModeCPUDataNotRestamped(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = ModeSwitchCPU
	n := testNet(t, cfg)
	var got *Packet
	n.AttachHost(7, func(p *Packet) {
		if p.Kind == KindData {
			got = p
		}
	})
	n.Eng.RunUntil(200 * sim.Microsecond) // let barriers advance well past 5
	n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 7, MsgTS: 5, BarrierBE: 5, Size: 128})
	n.Eng.RunUntil(300 * sim.Microsecond)
	if got == nil {
		t.Fatal("not delivered")
	}
	if got.BarrierBE != 5 {
		t.Fatalf("switch-CPU mode rewrote data barrier to %v", got.BarrierBE)
	}
}

func TestModeChipRestampsData(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	var got *Packet
	n.AttachHost(7, func(p *Packet) {
		if p.Kind == KindData {
			got = p
		}
	})
	n.Eng.RunUntil(200 * sim.Microsecond)
	n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 7, MsgTS: 5, BarrierBE: 5, Size: 128})
	n.Eng.RunUntil(300 * sim.Microsecond)
	if got == nil {
		t.Fatal("not delivered")
	}
	if got.BarrierBE <= 5 {
		t.Fatalf("chip mode did not advance data barrier: %v", got.BarrierBE)
	}
}

func TestProcMapping(t *testing.T) {
	cfg := smallCfg()
	cfg.ProcsPerHost = 4
	n := New(cfg)
	if n.NumProcs() != len(n.G.Hosts)*4 {
		t.Fatalf("NumProcs = %d", n.NumProcs())
	}
	if n.HostOfProc(0) != 0 || n.HostOfProc(3) != 0 || n.HostOfProc(4) != 1 {
		t.Fatal("HostOfProc mapping wrong")
	}
	if n.ClockOfProc(5) != n.Clocks[1] {
		t.Fatal("ClockOfProc mapping wrong")
	}
}

func TestFlowECMPIsStable(t *testing.T) {
	cfg := smallCfg()
	cfg.FlowECMP = true
	n := testNet(t, cfg)
	// With flow ECMP, packets of one flow arrive in order even with equal
	// timestamps under load (single path, FIFO links).
	var lastPSN uint32
	violations := 0
	n.AttachHost(7, func(p *Packet) {
		if p.Kind != KindData {
			return
		}
		if p.PSN < lastPSN {
			violations++
		}
		lastPSN = p.PSN
	})
	psn := uint32(0)
	sim.NewTicker(n.Eng, 200*sim.Nanosecond, 0, func() {
		psn++
		ts := n.Clocks[0].Now()
		n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 7, MsgTS: ts, BarrierBE: ts, PSN: psn, Size: 1024})
	})
	n.Eng.RunUntil(1 * sim.Millisecond)
	if violations != 0 {
		t.Fatalf("%d PSN reorderings on a single flow with flow-ECMP", violations)
	}
}
