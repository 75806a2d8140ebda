package core

import (
	"errors"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func TestDCTCPReducesWindowUnderECN(t *testing.T) {
	// Saturate one receiver from two senders with a low ECN threshold;
	// the senders' congestion windows must come down from InitCwnd.
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 4, SpinesPerPod: 1, Cores: 1}, 1)
	cfg.ECNThreshold = 1 * sim.Microsecond
	cl := Deploy(netsim.New(cfg), DefaultConfig())
	cl.Procs[3].OnDeliver = func(Delivery) {}
	eng := cl.Net.Eng
	for _, src := range []int{0, 1} {
		src := src
		sim.NewTicker(eng, 300*sim.Nanosecond, 0, func() {
			cl.Procs[src].Send([]Message{{Dst: 3, Size: 4096}})
		})
	}
	cl.Run(3 * sim.Millisecond)
	c := cl.Hosts[0].findConn(0, 3)
	if c == nil {
		t.Fatal("no connection state")
	}
	if c.alpha == 0 {
		t.Fatal("DCTCP alpha never updated despite ECN marks")
	}
	if c.cwnd >= cl.Hosts[0].Cfg.InitCwnd {
		t.Fatalf("cwnd %.1f did not decrease from initial %.1f under congestion",
			c.cwnd, cl.Hosts[0].Cfg.InitCwnd)
	}
	if cl.Net.Stats.ECNMarks == 0 {
		t.Fatal("no ECN marks recorded")
	}
}

func TestWindowNeverOverCommitted(t *testing.T) {
	// inflight + reserved must never exceed min(cwnd, rwnd) while a burst
	// drains through flow control.
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
	ccfg := DefaultConfig()
	ccfg.InitCwnd = 8
	ccfg.MaxCwnd = 8
	cl := Deploy(netsim.New(cfg), ccfg)
	cl.Procs[1].OnDeliver = func(Delivery) {}
	eng := cl.Net.Eng
	eng.At(50*sim.Microsecond, func() {
		for i := 0; i < 200; i++ {
			cl.Procs[0].SendReliable([]Message{{Dst: 1, Size: 256}})
		}
	})
	check := sim.NewTicker(eng, sim.Microsecond, 0, func() {
		c := cl.Hosts[0].findConn(0, 1)
		if c == nil {
			return
		}
		if int(c.inflight+c.reserved) > c.window()+1 {
			t.Errorf("window overcommitted: inflight=%d reserved=%d window=%d",
				c.inflight, c.reserved, c.window())
		}
		if c.inflight < 0 || c.reserved < 0 {
			t.Errorf("negative accounting: inflight=%d reserved=%d", c.inflight, c.reserved)
		}
	})
	cl.Run(5 * sim.Millisecond)
	check.Stop()
	if got := cl.Hosts[1].Stats.MsgsDelivered; got != 200 {
		t.Fatalf("delivered %d of 200", got)
	}
}

func TestLargeScatteringEventuallyLaunches(t *testing.T) {
	// Anti-livelock (§6.1): a scattering larger than the free window must
	// hold partial credits and launch once enough ACKs free space, even
	// while small scatterings keep arriving.
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 3, SpinesPerPod: 1, Cores: 1}, 1)
	ccfg := DefaultConfig()
	ccfg.InitCwnd = 4
	ccfg.MaxCwnd = 4
	cl := Deploy(netsim.New(cfg), ccfg)
	bigDone := false
	small := 0
	cl.Procs[1].OnDeliver = func(d Delivery) {
		if d.Data == "big" {
			bigDone = true
		} else {
			small++
		}
	}
	cl.Procs[2].OnDeliver = func(Delivery) {}
	eng := cl.Net.Eng
	eng.At(50*sim.Microsecond, func() {
		// A 16-packet message against a 4-packet window.
		cl.Procs[0].SendReliable([]Message{{Dst: 1, Data: "big", Size: 16 * 1024}})
	})
	// Competing small traffic on the same connection, continuously.
	sim.NewTicker(eng, 2*sim.Microsecond, 0, func() {
		if eng.Now() < 50*sim.Microsecond || eng.Now() > 2*sim.Millisecond {
			return
		}
		cl.Procs[0].SendReliable([]Message{{Dst: 1, Data: "s", Size: 64}})
	})
	cl.Run(5 * sim.Millisecond)
	if !bigDone {
		t.Fatal("large scattering starved (livelock)")
	}
	if small == 0 {
		t.Fatal("small traffic never flowed")
	}
}

func TestRetransmissionStopsAfterAck(t *testing.T) {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
	cfg.Impair = netsim.UniformLoss(0.3)
	cfg.Seed = 13
	cl := Deploy(netsim.New(cfg), DefaultConfig())
	cl.Procs[1].OnDeliver = func(Delivery) {}
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Procs[0].SendReliable([]Message{{Dst: 1, Size: 64}})
	})
	cl.Run(10 * sim.Millisecond)
	retxAt10ms := cl.Hosts[0].Stats.PktsRetx
	cl.Run(10 * sim.Millisecond)
	if cl.Hosts[0].Stats.PktsRetx != retxAt10ms {
		t.Fatal("retransmissions continued after the message was ACKed")
	}
	if cl.Hosts[0].Stats.MsgsDelivered+cl.Hosts[1].Stats.MsgsDelivered != 1 {
		t.Fatal("message not delivered")
	}
}

func TestRTOBackoffBounded(t *testing.T) {
	// Destination permanently black-holed (node killed without controller):
	// retransmissions must stop at MaxRetx and escalate via OnStuck.
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
	ccfg := DefaultConfig()
	ccfg.MaxRetx = 5
	cl := Deploy(netsim.New(cfg), ccfg)
	stuck := 0
	cl.Hosts[0].OnStuck = func(src, dst netsim.ProcID, ts sim.Time) { stuck++ }
	cl.Net.Eng.At(50*sim.Microsecond, func() {
		cl.Net.G.KillNode(cl.Net.G.Host(1))
		cl.Procs[0].SendReliable([]Message{{Dst: 1, Size: 64}})
	})
	cl.Run(50 * sim.Millisecond)
	if cl.Hosts[0].Stats.PktsRetx > uint64(ccfg.MaxRetx) {
		t.Fatalf("retransmitted %d times, cap %d", cl.Hosts[0].Stats.PktsRetx, ccfg.MaxRetx)
	}
	if stuck == 0 {
		t.Fatal("OnStuck escalation never fired")
	}
}

// TestBackpressureRefusesOversizedSend: a reliable message of more fragments
// than a connection's send queue may hold is refused with a
// *BackpressureError naming the destination and a retry time one RTO out,
// counted once, and the refusal leaves nothing behind — no reservation, no
// queued fragment, no consumed PSN, no waiting or outstanding scattering — so
// the next send on the connection goes out as if it had never been tried.
// With that send's partial frame held for company, a second refusal points
// the retry at the doorbell instead.
func TestBackpressureRefusesOversizedSend(t *testing.T) {
	w := &discardWire{now: 5 * sim.Microsecond}
	h := NewHost(0, w, DefaultConfig())
	p := h.AddProc(0)
	mtu := h.Cfg.MTU

	err := p.SendReliable([]Message{{Dst: 1, Size: (sendQueueCap + 1) * mtu}})
	var bp *BackpressureError
	if !errors.As(err, &bp) || !errors.Is(err, ErrBackpressure) {
		t.Fatalf("send of %d fragments: err = %v, want a *BackpressureError", sendQueueCap+1, err)
	}
	if bp.Dst != 1 || bp.RetryAt != w.now+h.Cfg.RTO {
		t.Fatalf("refusal %+v, want Dst 1 and RetryAt %v (one RTO out)", *bp, w.now+h.Cfg.RTO)
	}
	if h.Stats.Backpressure != 1 {
		t.Fatalf("Stats.Backpressure = %d, want 1", h.Stats.Backpressure)
	}
	c := h.findConn(0, 1)
	if c.reserved != 0 || c.inflight != 0 || c.work != nil || c.nextPSN != [2]uint32{} ||
		len(h.waitQ) != 0 || len(h.outstanding) != 0 || h.Stats.MsgsSent != 0 || h.lastTS != 0 {
		t.Fatalf("the refused send left state behind: conn %+v, %d waiting, %d outstanding, %d sent",
			*c, len(h.waitQ), len(h.outstanding), h.Stats.MsgsSent)
	}

	if err := p.SendReliable([]Message{{Dst: 1, Size: 64}}); err != nil {
		t.Fatalf("send after the refusal: %v", err)
	}
	if c.nextPSN[1] != 1 || c.view().sendQ.len() != 1 || len(h.outstanding) != 1 || h.Stats.MsgsSent != 1 {
		t.Fatalf("send after the refusal did not launch cleanly: next PSN %d, %d queued, %d outstanding",
			c.nextPSN[1], c.view().sendQ.len(), len(h.outstanding))
	}
	if w := c.view(); w.holdIdx == 0 || !w.doorbell.isArmed() {
		t.Fatal("the single-message frame is not held for company")
	}
	err = p.SendReliable([]Message{{Dst: 1, Size: sendQueueCap * mtu}})
	if !errors.As(err, &bp) || bp.Dst != 1 || bp.RetryAt != w.now+h.Cfg.BatchWindow {
		t.Fatalf("send onto a held queue: err = %v, want RetryAt %v (the doorbell)", err, w.now+h.Cfg.BatchWindow)
	}
	if h.Stats.Backpressure != 2 || c.view().sendQ.len() != 1 || c.reserved != 0 {
		t.Fatalf("second refusal: Backpressure %d, %d queued, %d reserved", h.Stats.Backpressure, c.view().sendQ.len(), c.reserved)
	}
}

// TestPktQueueFIFO: the send queue stays first-in-first-out through the
// rewind (drained), slide (full with a consumed prefix) and grow paths, and
// a queue that keeps draining never outgrows its first backing array.
func TestPktQueueFIFO(t *testing.T) {
	var q pktQueue
	next, want := uint32(0), uint32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(&outPkt{psn: next})
			next++
		}
	}
	drop := func(n int) {
		for i, op := range q.live()[:n] {
			if op.psn != want+uint32(i) {
				t.Fatalf("queue position %d holds psn %d, want %d", i, op.psn, want+uint32(i))
			}
		}
		q.drop(n)
		want += uint32(n)
	}
	// Never drains: the consumed prefix is slid away rather than the array
	// growing without bound.
	push(3)
	for i := 0; i < 1000; i++ {
		push(2)
		drop(2)
	}
	if q.len() != 3 || cap(q.buf) > 16 {
		t.Fatalf("len %d cap %d after 1000 push-2/drop-2 rounds over 3 queued, want len 3 and a small array", q.len(), cap(q.buf))
	}
	drop(3)
	// Drains every time: one array, reused from its base.
	base := cap(q.buf)
	for i := 0; i < 1000; i++ {
		push(1)
		drop(1)
	}
	if cap(q.buf) != base || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue did not rewind: head %d len %d cap %d (was %d)", q.head, len(q.buf), cap(q.buf), base)
	}
	push(100)
	drop(40)
	push(100)
	drop(160)
	if q.len() != 0 {
		t.Fatalf("len %d, want 0", q.len())
	}
	for _, op := range q.buf[:cap(q.buf)] {
		if op != nil {
			t.Fatal("a consumed slot still references its packet")
		}
	}
}
