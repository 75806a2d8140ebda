package main

import (
	"container/heap"
	"fmt"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// The core probe runs two core.Hosts — a sender with one process and a
// receiver with sixteen — on a Wire the benchmark owns: a manual clock, a
// timer heap, and packets handed across by the probe itself. It plays the
// one-link fabric between them (the barrier the receiver sees is the
// sender's own floor), so Proc.SendOpts and Host.HandlePacket can be timed
// from outside with no engine and no netsim underneath.

type probeTimer struct {
	at  sim.Time
	seq uint64
	fn  func()
}

type timerHeap []probeTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(probeTimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// probeClock is the manual time both probe hosts share.
type probeClock struct {
	now sim.Time
	seq uint64
}

// manualWire is one host's core.Wire: Send captures, After queues.
type manualWire struct {
	clk    *probeClock
	timers timerHeap
	out    []*netsim.Packet
}

func (w *manualWire) Send(pkt *netsim.Packet) { w.out = append(w.out, pkt) }
func (w *manualWire) Now() sim.Time           { return w.clk.now }
func (w *manualWire) After(d sim.Time, fn func()) {
	w.clk.seq++
	heap.Push(&w.timers, probeTimer{at: w.clk.now + d, seq: w.clk.seq, fn: fn})
}

// fire runs this host's timers that are due at the current time.
func (w *manualWire) fire() {
	for len(w.timers) > 0 && w.timers[0].at <= w.clk.now {
		heap.Pop(&w.timers).(probeTimer).fn()
	}
}

const (
	probeRecvProcs = 16
	probeBurst     = 16 // best-effort messages per round, one per receiver process
	probeRelFanout = 4  // reliable scattering width
	probeRelSize   = 4096
)

// coreProbe is the harness outcome. Times are wall ns per message.
type coreProbe struct {
	sendNs, sendAllocs, recvNs, recvAllocs, ackNs float64 // 64 B best-effort
	sendRelNs, recvRelNs                          float64 // 4 KiB reliable 4-way scatterings
	// flushNs is the doorbell timer emitting the held best-effort frames: on
	// the fabric it runs as an engine event, not inside the Send call.
	flushNs float64
	// Host-emitted packets per message on the best-effort path, for the
	// check that the probe runs the path the workload runs.
	beDataPktsPerMsg, beAckPktsPerMsg float64
}

type coreHarness struct {
	clk         probeClock
	wa, wb      manualWire
	a, b        *core.Host
	sender      *core.Proc
	delivered   int
	failed      int
	barBE, barC sim.Time // the sender's advertised floors, as its link carries them
	dataBuf     []*netsim.Packet
	ackBuf      []*netsim.Packet
	meters
}

// meters is what the harness accumulates over timed rounds.
type meters struct {
	dataPkts, ackPkts  int
	sendT, recvT, ackT time.Duration
	flushT             time.Duration
	sendM, recvM       uint64 // heap allocations
}

func newCoreHarness() *coreHarness {
	h := &coreHarness{}
	h.wa.clk, h.wb.clk = &h.clk, &h.clk
	h.clk.now = 10 * sim.Microsecond
	cfg := core.DefaultConfig()
	h.a, h.b = core.NewHost(0, &h.wa, cfg), core.NewHost(1, &h.wb, cfg)
	h.a.Start()
	h.b.Start()
	h.sender = h.a.AddProc(0)
	h.sender.OnSendFail = func(core.SendFailure) { h.failed++ }
	for p := 1; p <= probeRecvProcs; p++ {
		h.b.AddProc(netsim.ProcID(p)).OnDeliverBatch = func(ds []core.Delivery) { h.delivered += len(ds) }
	}
	return h
}

// step advances the shared clock and fires both hosts' due timers.
func (h *coreHarness) step(d sim.Time) {
	h.clk.now += d
	h.wa.fire()
	h.wb.fire()
}

// takeSender drains the sender's captured packets: data packets are
// returned for the receiver; beacons and commits are consumed the way the
// neighbor switch consumes them, leaving only the floors they carried.
func (h *coreHarness) takeSender() []*netsim.Packet {
	data := h.dataBuf[:0]
	for _, pkt := range h.wa.out {
		if pkt.BarrierBE > h.barBE {
			h.barBE = pkt.BarrierBE
		}
		if pkt.BarrierC > h.barC {
			h.barC = pkt.BarrierC
		}
		if pkt.Kind == netsim.KindData {
			data = append(data, pkt)
		} else {
			netsim.PutPacket(pkt)
		}
	}
	h.wa.out, h.dataBuf = h.wa.out[:0], data
	return data
}

// takeReceiver drains the receiver's captured packets, returning the ACKs.
func (h *coreHarness) takeReceiver() []*netsim.Packet {
	acks := h.ackBuf[:0]
	for _, pkt := range h.wb.out {
		if pkt.Kind == netsim.KindAck {
			acks = append(acks, pkt)
		} else {
			netsim.PutPacket(pkt)
		}
	}
	h.wb.out, h.ackBuf = h.wb.out[:0], acks
	return acks
}

// barrier hands the receiver a beacon carrying the sender's floors, which
// releases everything the sender has finished with.
func (h *coreHarness) barrier() {
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Size = netsim.KindBeacon, netsim.BeaconBytes
	pkt.BarrierBE, pkt.BarrierC = h.barBE, h.barC
	h.b.HandlePacket(pkt)
}

// round sends one burst and carries it through delivery and ACK, timing
// the sender's calls, the receiver's packet handling and the ACK handling.
func (h *coreHarness) round(reliable bool, recs []int) error {
	cfg := h.a.Cfg
	h.step(2 * sim.Microsecond)
	h.takeSender()
	h.takeReceiver()
	before := h.delivered
	// core keeps the message slices, so each round needs fresh ones; like
	// the workload generator's arena they are not the sender's cost.
	msgs := make([]core.Message, probeBurst)
	for i := range msgs {
		msgs[i] = core.Message{Dst: netsim.ProcID(1 + i), Data: &recs[i], Size: 64}
	}
	sent := probeBurst

	m0 := mallocs()
	t0 := time.Now()
	if reliable {
		sent = probeRelFanout
		msgs = msgs[:sent:sent]
		for i := range msgs {
			msgs[i].Size = probeRelSize
		}
		if err := h.sender.SendOpts(msgs, core.SendOptions{Reliable: true}); err != nil {
			return fmt.Errorf("core probe: reliable send refused: %w", err)
		}
	} else {
		for i := range msgs {
			if err := h.sender.SendOpts(msgs[i:i+1:i+1], core.SendOptions{}); err != nil {
				return fmt.Errorf("core probe: best-effort send refused: %w", err)
			}
		}
	}
	h.sendT += time.Since(t0)
	m1 := mallocs()
	h.sendM += m1 - m0
	// The doorbell flush emits the held frames.
	t0 = time.Now()
	h.clk.now += cfg.BatchWindow
	h.wa.fire()
	h.flushT += time.Since(t0)
	m1 = mallocs()

	data := h.takeSender()
	expect := probeBurst
	if reliable {
		expect = probeRelFanout * (probeRelSize / cfg.MTU)
	}
	if len(data) != expect {
		return fmt.Errorf("core probe: send window closed: %d data packets emitted, want %d", len(data), expect)
	}
	h.dataPkts += len(data)

	t0 = time.Now()
	for _, pkt := range data {
		h.b.HandlePacket(pkt)
	}
	if !reliable {
		// The sender's floor has passed every timestamp it assigned.
		if h.clk.now > h.barBE {
			h.barBE = h.clk.now
		}
		h.barrier()
	}
	h.clk.now += cfg.AckFlush
	h.wb.fire()
	h.recvT += time.Since(t0)
	h.recvM += mallocs() - m1

	acks := h.takeReceiver()
	h.ackPkts += len(acks)
	t0 = time.Now()
	for _, pkt := range acks {
		h.a.HandlePacket(pkt)
	}
	h.ackT += time.Since(t0)
	if reliable {
		// Fully ACKed: the sender's commit message carries the floor that
		// releases the scattering at the receiver.
		h.takeSender()
		t0 = time.Now()
		h.barrier()
		h.recvT += time.Since(t0)
	}
	if got := h.delivered - before; got != sent {
		return fmt.Errorf("core probe: %d of %d messages delivered", got, sent)
	}
	if h.failed > 0 || h.a.Stats.Backpressure > 0 {
		return fmt.Errorf("core probe: %d send failures, %d backpressure refusals", h.failed, h.a.Stats.Backpressure)
	}
	return nil
}

// probeCore runs rounds best-effort and rounds/4 reliable rounds after a
// warm-up and returns per-message costs. Every round checks itself: all
// messages delivered, the expected packets emitted, nothing refused.
func probeCore(rounds int) (coreProbe, error) {
	recs := make([]int, probeBurst)
	run := func(reliable bool, n int) (*coreHarness, error) {
		h := newCoreHarness()
		for i := 0; i < n/10+8; i++ {
			if err := h.round(reliable, recs); err != nil {
				return nil, err
			}
		}
		h.meters = meters{} // warm-up done
		for i := 0; i < n; i++ {
			if err := h.round(reliable, recs); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	be, err := run(false, rounds)
	if err != nil {
		return coreProbe{}, err
	}
	rel, err := run(true, rounds/4)
	if err != nil {
		return coreProbe{}, err
	}
	beMsgs := float64(rounds * probeBurst)
	relMsgs := float64(rounds / 4 * probeRelFanout)
	return coreProbe{
		sendNs: float64(be.sendT) / beMsgs, sendAllocs: float64(be.sendM) / beMsgs,
		recvNs: float64(be.recvT) / beMsgs, recvAllocs: float64(be.recvM) / beMsgs,
		ackNs: float64(be.ackT) / beMsgs, flushNs: float64(be.flushT) / beMsgs,
		sendRelNs:        float64(rel.sendT) / relMsgs,
		recvRelNs:        float64(rel.recvT) / relMsgs,
		beDataPktsPerMsg: float64(be.dataPkts) / beMsgs, beAckPktsPerMsg: float64(be.ackPkts) / beMsgs,
	}, nil
}

// matchesWorkload checks that the core probe ran the path the
// best-effort broadcast runs: the same host-emitted data and ACK packets per
// message, not an error or retransmit path.
func (cp *coreProbe) matchesWorkload(res *result) []string {
	a, b := &res.first, &res.last
	msgs := float64(b.core.MsgsSent - a.core.MsgsSent)
	units := b.occN[0] - a.occN[0] // data units emitted
	control := float64(b.core.Beacons-a.core.Beacons) + float64(b.core.Commits-a.core.Commits) +
		float64(b.core.PktsRetx-a.core.PktsRetx) + float64(b.core.Naks-a.core.Naks)
	acks := float64(b.core.PktsSent-a.core.PktsSent) - units - control
	var problems []string
	for _, c := range []struct {
		what            string
		probe, workload float64
	}{
		{"data packets per message", cp.beDataPktsPerMsg, ratio(units, msgs)},
		{"ACK packets per message", cp.beAckPktsPerMsg, ratio(acks, msgs)},
	} {
		if diff := c.probe - c.workload; diff > 0.05*c.workload || diff < -0.05*c.workload {
			problems = append(problems, fmt.Sprintf("core probe emits %.3f %s, the workload %.3f", c.probe, c.what, c.workload))
		}
	}
	return problems
}
