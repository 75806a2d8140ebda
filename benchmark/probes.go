package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"onepipe"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/wire"
)

// The probes time single layers from outside, through their public
// functions, on inputs shaped like the workloads'. They feed the layer
// table of the traced run; no end-to-end metric is read from them.

// probeReps is how often each probe loop repeats; the median is reported.
const probeReps = 5

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn probeReps times and returns the median wall ns and the
// median heap allocations of one call.
func timed(fn func()) (ns, allocs float64) {
	walls := make([]float64, probeReps)
	allocd := make([]float64, probeReps)
	for i := range walls {
		m0 := mallocs()
		t0 := time.Now()
		fn()
		walls[i] = float64(time.Since(t0))
		allocd[i] = float64(mallocs() - m0)
	}
	sort.Float64s(walls)
	sort.Float64s(allocd)
	return walls[probeReps/2], allocd[probeReps/2]
}

// probeEngine times sim.Engine: depth self-rescheduling events keep the
// heap at a constant depth while steps events execute through After2+Step.
func probeEngine(depth, steps int) (nsPerEvent, allocsPerEvent float64) {
	eng := sim.NewEngine(1)
	x := uint64(88172645463325252)
	var fire func(a, b any)
	fire = func(a, b any) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		eng.After2(sim.Time(1+x%1000), fire, a, b)
	}
	for i := 0; i < depth; i++ {
		eng.After2(sim.Time(i%1000), fire, eng, nil)
	}
	for i := 0; i < 4*depth; i++ {
		eng.Step()
	}
	ns, allocs := timed(func() {
		for i := 0; i < steps; i++ {
			eng.Step()
		}
	})
	return ns / float64(steps), allocs / float64(steps)
}

// pathProbe is the netsim data-path probe's outcome.
type pathProbe struct {
	nsPerPkt, eventsPerPkt, allocsPerPkt float64
	hops                                 float64 // link transmissions per packet
}

// probePath sends 64 B data packets one at a time from host 0 to the last
// host of a quiescent Testbed() with beacons off and steps the engine until
// each arrives: the cost of a packet's hops with nothing else going on.
func probePath(pkts int) (pathProbe, error) {
	cfg := netsim.DefaultConfig(onepipe.Testbed(), 1)
	cfg.DisableBeacons = true
	n := netsim.New(cfg)
	last := len(n.G.Hosts) - 1
	got := 0
	for h := range n.G.Hosts {
		n.AttachHost(h, func(p *netsim.Packet) {
			got++
			netsim.PutPacket(p)
		})
	}
	lost := false
	sendOne := func() {
		pkt := netsim.GetPacket()
		pkt.Kind, pkt.Src, pkt.Dst = netsim.KindData, 0, netsim.ProcID(last)
		pkt.Size, pkt.EndOfMsg = 64+netsim.HeaderBytes, true
		n.SendFromHost(0, pkt)
		want := got + 1
		for steps := 0; got < want; steps++ {
			if steps > 1000 || !n.Eng.Step() {
				lost = true
				return
			}
		}
	}
	for i := 0; i < pkts/10; i++ {
		sendOne()
	}
	e0, s0 := n.ExecutedEvents(), n.TotalStats()
	ns, allocs := timed(func() {
		for i := 0; i < pkts; i++ {
			sendOne()
		}
	})
	if lost {
		return pathProbe{}, fmt.Errorf("netsim path probe: a packet did not arrive")
	}
	total := float64(pkts * probeReps)
	s1 := n.TotalStats()
	return pathProbe{
		nsPerPkt:     ns / float64(pkts),
		eventsPerPkt: float64(n.ExecutedEvents()-e0) / total,
		allocsPerPkt: allocs / float64(pkts),
		hops:         float64(s1.PktsByKind[netsim.KindData]-s0.PktsByKind[netsim.KindData]) / total,
	}, nil
}

// beaconProbe is the netsim beacon-plane probe's outcome.
type beaconProbe struct {
	nsPerLinkTick, eventsPerLinkTick float64
	nsPerBeacon, eventsPerBeacon     float64 // per beacon link transmission
	depth                            float64 // engine heap depth while it ran
}

// beaconLinkTicks is how many link × interval ticks one timed repeat of the
// beacon probe covers, whatever the topology's size.
const beaconLinkTicks = 200000

// probeBeacons runs an idle fabric of the given topology: no data, only the
// beacon plane (eq. 4.1 aggregate and relay). netsim alone has no hosts, so
// the probe plays their part: one uplink beacon per host per interval
// carrying the host's time as both barriers.
func probeBeacons(topo onepipe.Topology) beaconProbe {
	cfg := netsim.DefaultConfig(topo, 1)
	n := netsim.New(cfg)
	hosts := make([]int, len(n.G.Hosts))
	var tick func(a, b any)
	tick = func(a, b any) {
		h := *a.(*int)
		pkt := netsim.GetPacket()
		pkt.Kind, pkt.Src, pkt.Size = netsim.KindBeacon, netsim.ProcID(h), netsim.BeaconBytes
		pkt.BarrierBE, pkt.BarrierC = n.Eng.Now(), n.Eng.Now()
		n.SendFromHost(h, pkt)
		n.Eng.After2(cfg.BeaconInterval, tick, a, nil)
	}
	for h := range hosts {
		hosts[h] = h
		n.AttachHost(h, netsim.PutPacket)
		n.Eng.After2(cfg.BeaconInterval, tick, &hosts[h], nil)
	}
	n.RunFor(20 * cfg.BeaconInterval)
	intervals := beaconLinkTicks/len(n.G.Links) + 1
	e0, s0 := n.ExecutedEvents(), n.TotalStats()
	wall, _ := timed(func() { n.RunFor(sim.Time(intervals) * cfg.BeaconInterval) })
	events := float64(n.ExecutedEvents()-e0) / probeReps
	s1 := n.TotalStats()
	beacons := float64(s1.PktsByKind[netsim.KindBeacon]-s0.PktsByKind[netsim.KindBeacon]) / probeReps
	ticks := float64(len(n.G.Links) * intervals)
	return beaconProbe{nsPerLinkTick: wall / ticks, eventsPerLinkTick: events / ticks,
		nsPerBeacon: wall / beacons, eventsPerBeacon: events / beacons, depth: float64(n.Eng.Pending())}
}

// wireProbe is the codec probe's outcome.
type wireProbe struct {
	encodeNs, decodeNs, frameParseNsPerEntry, allocsPerPkt float64
}

// probeWire replays the best-effort broadcast's packet mix — a 64 B data
// packet, a 16-PSN ACK batch, a beacon and an 8-entry frame — through the
// codec. The simulated fabrics pass *Packet by reference, so no end-to-end
// metric moves with these; they keep the layer table complete and make a
// header change visible.
func probeWire(iters int) (wireProbe, error) {
	const ref = sim.Time(123456789)
	payload := make([]byte, 64)
	frame := netsim.GetFrame()
	for i := 0; i < 8; i++ {
		frame.Entries = append(frame.Entries, netsim.FrameEntry{
			TS: ref + sim.Time(i), PSNOff: uint16(i), Size: 64, Data: payload})
	}
	frame.Span = 8
	mix := []struct {
		pkt     netsim.Packet
		payload []byte
	}{
		{netsim.Packet{Kind: netsim.KindData, Src: 1, Dst: 2, MsgTS: ref, BarrierBE: ref, BarrierC: ref, PSN: 7, EndOfMsg: true}, payload},
		{netsim.Packet{Kind: netsim.KindAck, Src: 2, Dst: 1, BarrierBE: ref, BarrierC: ref, PSN: 7}, make([]byte, 5*16)},
		{netsim.Packet{Kind: netsim.KindBeacon, Src: 1, BarrierBE: ref, BarrierC: ref}, nil},
		{netsim.Packet{Kind: netsim.KindData, Src: 1, Dst: 2, MsgTS: ref, BarrierBE: ref, BarrierC: ref, PSN: 8, Frame: true, Payload: frame}, nil},
	}
	buf := make([]byte, 0, 2048)
	encoded := make([][]byte, len(mix))
	for i := range mix {
		encoded[i] = wire.Encode(&mix[i].pkt, mix[i].payload)
	}
	var failed error
	encNs, encAllocs := timed(func() {
		for i := 0; i < iters; i++ {
			m := &mix[i%len(mix)]
			buf = wire.AppendEncode(buf[:0], &m.pkt, m.payload)
		}
	})
	var dst netsim.Packet
	var framePayload []byte
	decNs, decAllocs := timed(func() {
		for i := 0; i < iters; i++ {
			p, err := wire.DecodeInto(&dst, encoded[i%len(encoded)], ref)
			if err != nil {
				failed = err
			}
			framePayload = p
		}
	})
	// The last decode of the loop is not necessarily the frame; decode it
	// once more for the parse probe.
	framePayload, err := wire.DecodeInto(&dst, encoded[3], ref)
	if err != nil {
		failed = err
	}
	parseNs, parseAllocs := timed(func() {
		for i := 0; i < iters; i++ {
			f, err := wire.ParseFramePayload(framePayload, ref)
			if err != nil {
				failed = err
				return
			}
			netsim.PutFrame(f)
		}
	})
	if failed != nil {
		return wireProbe{}, fmt.Errorf("wire probe: %w", failed)
	}
	n := float64(iters)
	return wireProbe{encodeNs: encNs / n, decodeNs: decNs / n, frameParseNsPerEntry: parseNs / n / 8,
		allocsPerPkt: (encAllocs + decAllocs + parseAllocs) / (3 * n)}, nil
}
