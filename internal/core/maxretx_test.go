package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// twoHostCluster deploys a minimal 1Pipe fabric with a bounded, fixed send
// window so MaxRetx exhaustion is easy to provoke.
func twoHostCluster(hosts int, maxRetx int) *Cluster {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: hosts, SpinesPerPod: 1, Cores: 1}, 1)
	ccfg := DefaultConfig()
	ccfg.InitCwnd = 4
	ccfg.MaxCwnd = 4
	ccfg.MaxRetx = maxRetx
	return Deploy(netsim.New(cfg), ccfg)
}

// sendUnbatched issues a reliable scattering exempt from frame coalescing:
// these tests assert per-packet window-slot accounting, and coalescing
// would merge the probe scatterings into one slot.
func sendUnbatched(p *Proc, msgs []Message) error {
	return p.SendOpts(msgs, SendOptions{Reliable: true, NoBatch: true})
}

func TestMaxRetxRestoresWindowSlots(t *testing.T) {
	// A black-holed destination must not wedge the send window: packets
	// that exhaust MaxRetx give their slots back, so scatterings queued
	// behind them still launch. Before the fix the first window's worth of
	// packets sat in unacked[1] forever and the other half never launched.
	cl := twoHostCluster(2, 2)
	type stuckKey struct {
		dst netsim.ProcID
		ts  sim.Time
	}
	reports := make(map[stuckKey]int)
	cl.Hosts[0].OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		reports[stuckKey{dst, ts}]++
	}
	const total = 8 // window is 4: half must wait for freed slots
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		for i := 0; i < total; i++ {
			if err := sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 64}}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	cl.Run(100 * sim.Millisecond)

	h := cl.Hosts[0]
	c := h.findConn(0, 1)
	if c == nil {
		t.Fatal("no connection state")
	}
	// Every scattering has a distinct timestamp, so full escalation means
	// one report per scattering — and the dedup means exactly one.
	if len(reports) != total {
		t.Fatalf("OnStuck covered %d scatterings, want %d (queued sends never launched?)", len(reports), total)
	}
	for k, n := range reports {
		if n != 1 {
			t.Errorf("OnStuck fired %d times for (dst=%d, ts=%v), want exactly 1", n, k.dst, k.ts)
		}
	}
	if h.Stats.StuckReports != total {
		t.Errorf("StuckReports=%d, want %d", h.Stats.StuckReports, total)
	}
	// The window must be fully restored.
	if c.inflight != 0 || c.reserved != 0 {
		t.Errorf("window leaked: inflight=%d reserved=%d", c.inflight, c.reserved)
	}
	if got, want := c.available(), c.window(); got != want {
		t.Errorf("available()=%d, want full window %d", got, want)
	}
	if n := c.view().unacked[1].len(); n != 0 {
		t.Errorf("%d packets still in unacked[1] after exhaustion", n)
	}
	if n := c.view().parked.len(); n != total {
		t.Errorf("%d packets parked, want %d", n, total)
	}
	// Fresh traffic on other connections is unaffected; the same connection
	// accepts and launches new scatterings into the restored window.
	sentBefore := h.Stats.MsgsSent
	if err := sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 64}}); err != nil {
		t.Fatalf("post-exhaustion send: %v", err)
	}
	cl.Run(sim.Millisecond)
	if h.Stats.MsgsSent != sentBefore+1 {
		t.Errorf("post-exhaustion scattering never launched: MsgsSent %d -> %d", sentBefore, h.Stats.MsgsSent)
	}
}

func TestMaxRetxStuckPacketCompletedByLateAck(t *testing.T) {
	// A parked packet stays ACK-completable: §5.2 Controller Forwarding
	// relays it out of band and the forwarded ACK must finish the
	// scattering and release the commit floor.
	cl := twoHostCluster(2, 2)
	cl.Hosts[0].OnStuck = func(netsim.ProcID, netsim.ProcID, sim.Time) {}
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 64}})
	})
	cl.Run(50 * sim.Millisecond)

	h := cl.Hosts[0]
	c := h.findConn(0, 1)
	if c == nil || c.view().parked.len() != 1 {
		t.Fatalf("expected exactly one parked packet, conn=%v", c)
	}
	if len(h.outstanding) != 1 {
		t.Fatalf("scattering should still block the commit floor, outstanding=%d", len(h.outstanding))
	}
	// The parked packet must be visible to Controller Forwarding.
	if pkts := h.PendingTo(0, 1); len(pkts) != 1 {
		t.Fatalf("PendingTo sees %d packets, want 1", len(pkts))
	}
	parked := &c.view().parked
	psn := parked.slots[parked.head].psn
	// Deliver the (controller-relayed) ACK.
	h.HandlePacket(&netsim.Packet{Kind: netsim.KindAck, Src: 1, Dst: 0, Reliable: true, PSN: psn})
	cl.Run(sim.Millisecond)
	if c.view().parked.len() != 0 {
		t.Error("parked packet not cleared by late ACK")
	}
	if len(h.outstanding) != 0 {
		t.Error("scattering still blocks the commit floor after late ACK")
	}
	if c.inflight != 0 {
		t.Errorf("inflight=%d after late ACK, want 0 (slot was already freed at parking)", c.inflight)
	}
}

func TestRecallMaxRetxCleansUp(t *testing.T) {
	// A recall whose receiver never answers must stop blocking the commit
	// floor and the failure-completion callback once MaxRetx is exhausted.
	// Before the fix the recall stayed registered, recallsPending never hit
	// zero, and ApplyFailure's done callback never fired.
	cl := twoHostCluster(3, 3)
	type stuckKey struct {
		dst netsim.ProcID
		ts  sim.Time
	}
	reports := make(map[stuckKey]int)
	cl.Hosts[0].OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		reports[stuckKey{dst, ts}]++
	}
	doneFired := false
	eng := cl.Net.Eng
	eng.At(50*sim.Microsecond, func() {
		// Both receivers go dark: host 2 is declared failed by the
		// controller; host 1 is merely unreachable, so the recall sent to
		// it during the abort can never be acknowledged.
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		cl.Net.G.KillNode(cl.Net.G.Host(2))
		sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 64}, {Dst: 2, Size: 64}})
	})
	eng.At(100*sim.Microsecond, func() {
		cl.Hosts[0].ApplyFailure(map[netsim.ProcID]sim.Time{2: eng.Now()}, func() { doneFired = true })
	})
	cl.Run(100 * sim.Millisecond)

	h := cl.Hosts[0]
	if !doneFired {
		t.Error("ApplyFailure completion never fired (recall state leaked)")
	}
	if len(h.recalls) != 0 {
		t.Errorf("%d recalls still registered after exhaustion", len(h.recalls))
	}
	if h.failWait != 0 {
		t.Errorf("failWait=%d, want 0", h.failWait)
	}
	if len(h.outstanding) != 0 {
		t.Errorf("aborted scattering still blocks the commit floor, outstanding=%d", len(h.outstanding))
	}
	for k, n := range reports {
		if n != 1 {
			t.Errorf("OnStuck fired %d times for (dst=%d, ts=%v), want exactly 1", n, k.dst, k.ts)
		}
	}
	if h.Stats.StuckReports == 0 {
		t.Error("recall exhaustion never escalated via OnStuck")
	}
}

// TestSynchronousStuckResolve: an OnStuck hook that resolves the stall on
// the spot and sends elsewhere runs inside the RTO's walk of the stalled
// conn's ring. Resolving drops the scattering's last units, which leaves the
// conn idle mid-walk; its transient part must stay attached until the walk
// is over, or the new send takes it over and the walk retransmits the other
// pair's units under this pair's addresses.
func TestSynchronousStuckResolve(t *testing.T) {
	cl := twoHostCluster(3, 2)
	h := cl.Hosts[0]
	failed, resolved := 0, 0
	cl.Procs[0].OnSendFail = func(SendFailure) { failed++ }
	delivered := 0
	cl.Procs[2].OnDeliver = func(d Delivery) {
		if d.Src != 0 || d.Data != "elsewhere" {
			t.Errorf("proc 2 delivered %+v", d)
		}
		delivered++
	}
	h.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		if resolved > 0 {
			return
		}
		resolved++
		h.ResolveUnreachable(dst, ts)
		if err := sendUnbatched(cl.Procs[0], []Message{{Dst: 2, Data: "elsewhere", Size: 1500}}); err != nil {
			t.Error(err)
		}
	}
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		// Two fragments: the walk parks the first, and the hook's resolve
		// drops the second.
		if err := sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 1500}}); err != nil {
			t.Error(err)
		}
	})
	cl.Run(10 * sim.Millisecond)
	if resolved != 1 || failed != 1 || delivered != 1 {
		t.Fatalf("%d resolves, %d send failures, %d deliveries at proc 2; want 1, 1, 1", resolved, failed, delivered)
	}
	if c := h.findConn(0, 1); c.work != nil || c.inflight != 0 {
		t.Fatalf("the stalled pair did not settle: attached %v, inflight %d", c.work != nil, c.inflight)
	}
}

// TestPendingToPSNOrder: Controller Forwarding relays what PendingTo
// returns one event per packet in that order, so packets parked toward one
// destination must come back in ascending PSN order — the order they were
// sent in — and not in the order of whatever container parked them.
func TestPendingToPSNOrder(t *testing.T) {
	cl := twoHostCluster(2, 2)
	cl.Hosts[0].OnStuck = func(netsim.ProcID, netsim.ProcID, sim.Time) {}
	const total = 8
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		for i := 0; i < total; i++ {
			if err := sendUnbatched(cl.Procs[0], []Message{{Dst: 1, Size: 64}}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	cl.Run(100 * sim.Millisecond)
	if n := cl.Hosts[0].findConn(0, 1).view().parked.len(); n != total {
		t.Fatalf("%d packets parked, want %d", n, total)
	}
	pkts := cl.Hosts[0].PendingTo(0, 1)
	if len(pkts) != total {
		t.Fatalf("PendingTo returned %d packets, want %d", len(pkts), total)
	}
	for i, pkt := range pkts {
		if pkt.PSN != uint32(i) {
			t.Fatalf("PendingTo packet %d has PSN %d, want %d (ascending)", i, pkt.PSN, i)
		}
	}
}
