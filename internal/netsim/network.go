package netsim

import (
	"fmt"
	"math/rand"

	"onepipe/internal/barrier"
	"onepipe/internal/clock"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Stats counts network-level events for the overhead experiments.
type Stats struct {
	PktsByKind  [8]uint64
	BytesByKind [8]uint64
	CorruptDrop uint64
	QueueDrop   uint64
	DeadDrop    uint64 // dropped on dead links/nodes
	ECNMarks    uint64
	Delivered   uint64
}

// BeaconBandwidthFraction returns the fraction of total bytes that were
// beacons (Fig. 13b).
func (s *Stats) BeaconBandwidthFraction() float64 {
	var total uint64
	for _, b := range s.BytesByKind {
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(s.BytesByKind[KindBeacon]) / float64(total)
}

type linkState struct {
	id   topology.LinkID
	kind topology.LinkKind
	from topology.NodeID
	to   topology.NodeID
	bpns float64 // bytes per nanosecond; 0 = infinite
	prop sim.Time
	busy sim.Time // egress busy-until
	last sim.Time // last transmit completion (idle detection)
	// imp is the resolved impairment state for this link (nil when the
	// profile leaves it clean). Only transmit touches it.
	imp *ImpairState
	// lastTxBE/C track the freshest barriers already carried on this link
	// (by stamped data in chip mode, or by earlier beacons), so a beacon
	// adding no information is suppressed — the §4.2 "beacons on idle
	// links" rule generalized to sporadically-busy links.
	lastTxBE sim.Time
	lastTxC  sim.Time
	// lastArrival enforces FIFO under jitter.
	lastArrival sim.Time
	// Beacon relay state for the egress side. beaconPending marks a link
	// that is a member of a relay wave (see scheduleRelays) from arming
	// until its beacon fires; waveNext chains the wave's members in link
	// order and cannot change in between, because a pending link is never
	// re-armed. On the wave's first link pendBE/pendC hold the barriers
	// captured at trigger time until the wave fires.
	beaconPending bool
	waveNext      *linkState
	lastBeaconTx  sim.Time
	pendBE        sim.Time
	pendC         sim.Time
	// Receiver side: slot is the link's input in the downstream node's
	// register set (the switch registers of §4.1), which holds its barrier
	// registers and its membership in each plane's minimum.
	slot   int
	lastRx sim.Time
	// dead mirrors topology.Graph.LinkDead (the link or either endpoint
	// marked dead); syncDeadness keeps it current.
	dead bool
	// alive is the dead-link scanner's verdict (§4.2): the link counts
	// toward the best-effort minimum while it is alive and not dead. The
	// commit plane's membership is the register set's own bit: when the
	// commit plane is controller-managed it stays set until the
	// controller's Resume step, so that Discard/Recall complete before
	// commit barriers advance past the failure timestamp (§5.2).
	alive bool
	// excludedC marks a link the controller has removed from commit
	// aggregation for good: packet arrivals must not resurrect it. Needed
	// for a failed-but-running host (e.g. dead downlink only) that keeps
	// transmitting — its parked commit floor would otherwise cap the
	// cluster-wide barrier forever (§5.2: a failed process's links leave
	// the aggregation tree).
	excludedC bool
	// drained marks a link gracefully removed from (or not yet admitted
	// to) aggregation by live reconfiguration. Unlike death, the dead-link
	// scanner must never report it, and straggler packet arrivals must not
	// resurrect it — a drain is a membership change, not a failure.
	drained bool
}

type nodeState struct {
	id   topology.NodeID
	kind topology.Kind
	out  []topology.LinkID
	// regs holds one input per link entering the node, in link-ID order.
	// Its output clamp is the §4.2 rule that a switch suspends updates
	// when a (re)added link's barrier lags.
	regs barrier.Set
	// dead mirrors topology.Graph.NodeDead.
	dead bool
	// pending counts the egress links with a beacon on its way, so a
	// relay finding every one of them claimed costs nothing.
	pending int
	// lastRelayBE/C record the barriers most recently relayed in beacons,
	// so a relay is scheduled only when aggregation actually advanced.
	lastRelayBE sim.Time
	lastRelayC  sim.Time
}

// Network is the simulated data center network.
type Network struct {
	Eng    *sim.Engine
	G      *topology.Graph
	Cfg    Config
	Clocks []*clock.Clock // one per host
	Stats  Stats

	// links and nodes hold pointers, not values: scheduled events and
	// beacon-ticker closures capture *linkState/*nodeState, and Grow
	// appends at runtime — a value slice would invalidate every captured
	// pointer on reallocation.
	links []*linkState
	nodes []*nodeState
	// hostRx receives every packet (including beacons) delivered to a host.
	hostRx []func(*Packet)
	// pool holds the fabric's free packets; see PacketPool.
	pool Pool
	rng  *rand.Rand
	// lossOverride, when nonzero, replaces every link's uniform Loss (see
	// SetLossOverride).
	lossOverride float64

	// OnLinkDead, if set, is invoked when a switch's dead-link scanner
	// removes an input link — the controller's failure Detect signal.
	OnLinkDead func(l topology.Link)

	// Obs, when armed by EnableObs, receives per-switch barrier-lag and
	// egress-queue-depth gauge samples.
	Obs *obs.Trace

	tickers []*sim.Ticker

	// Capture-free event callbacks for the per-packet hops, allocated once
	// so the hot path schedules through Engine.At2 without a closure per
	// packet.
	transmitFn    func(a, b any)
	receiveFn     func(a, b any)
	deliverFn     func(a, b any)
	waveTriggerFn func(a, b any)
	waveFireFn    func(a, b any)
}

// New builds the network, its clocks and its beacon machinery.
func New(cfg Config) *Network {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	if cfg.Oversub < 1 {
		cfg.Oversub = 1
	}
	g := topology.NewClos(cfg.Topo)
	n := &Network{Eng: sim.NewEngine(cfg.Seed), G: g, Cfg: cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 7919)),
		hostRx: make([]func(*Packet), len(g.Hosts)),
	}
	n.transmitFn = func(a, b any) { n.transmit(a.(*linkState), b.(*Packet)) }
	n.receiveFn = func(a, b any) { n.receive(a.(*linkState), b.(*Packet)) }
	n.deliverFn = func(a, b any) { a.(func(*Packet))(b.(*Packet)) }
	n.waveTriggerFn = func(a, b any) {
		node, head := a.(*nodeState), b.(*linkState)
		head.pendBE, head.pendC = node.regs.Out()
		n.Eng.After2(n.beaconProcDelay(), n.waveFireFn, node, head)
	}
	n.waveFireFn = func(a, b any) {
		node, head := a.(*nodeState), b.(*linkState)
		for ls := head; ls != nil; {
			next := ls.waveNext
			ls.waveNext = nil
			n.fireBeacon(node, ls, head.pendBE, head.pendC)
			ls = next
		}
	}
	for range g.Hosts {
		n.Clocks = append(n.Clocks, clock.New(n.Eng, n.Eng.Rand(), cfg.Clock))
	}
	n.nodes = make([]*nodeState, len(g.Nodes))
	for i := range g.Nodes {
		n.nodes[i] = n.newNodeState(topology.NodeID(i))
	}
	n.links = make([]*linkState, len(g.Links))
	for i, l := range g.Links {
		ls := n.newLinkState(l)
		ls.alive = true
		n.syncBE(ls)
		n.nodes[ls.to].regs.SetMember(ls.slot, barrier.C, true)
		n.links[i] = ls
	}
	g.SetDeathListener(n.syncDeadness)
	if !cfg.DisableBeacons {
		n.startFallbackScan(n.links)
	}
	n.startDeadLinkScanner()
	return n
}

func (n *Network) newNodeState(id topology.NodeID) *nodeState {
	nd := n.G.Node(id)
	return &nodeState{id: id, kind: nd.Kind, out: n.G.Out[id], dead: n.G.NodeDead(id)}
}

// newLinkState builds a link's state and appends its input, in neither
// plane, to the downstream node's register set. Links are built in ID
// order, so a node's inputs are in the order of Graph.In.
func (n *Network) newLinkState(l topology.Link) *linkState {
	ls := &linkState{
		id: l.ID, kind: l.Kind, from: l.From, to: l.To,
		prop: propOf(l.Kind),
		bpns: n.bandwidthOf(l.Kind),
		dead: n.G.LinkDead(l.ID),
	}
	ls.slot = n.nodes[l.To].regs.Add(0, 0)
	ls.imp = NewImpairState(n.Cfg.Impair.For(l.ID, l.Kind), n.Cfg.Seed, l.ID)
	return ls
}

// syncBE puts a link into its node's best-effort minimum exactly when the
// scanner holds it alive and the topology does not mark it dead: a link
// removed by the scanner or dead in the topology stops contributing. The
// commit plane is not touched — the last register of a dead link keeps
// gating the commit minimum until the controller's Resume step takes it
// out, otherwise commit barriers could pass the failure timestamp before
// Discard/Recall complete (§5.2).
func (n *Network) syncBE(l *linkState) {
	n.nodes[l.to].regs.SetMember(l.slot, barrier.BE, l.alive && !l.dead)
}

// syncDeadness is the topology's death listener: it re-reads every node's
// and link's death mark into the mirrors the per-packet paths read, and
// moves each link whose best-effort membership changes into or out of its
// node's minimum. Kills and revivals are rare; arrivals are not.
func (n *Network) syncDeadness() {
	for _, node := range n.nodes {
		node.dead = n.G.NodeDead(node.id)
	}
	for _, l := range n.links {
		l.dead = n.G.LinkDead(l.id)
		n.syncBE(l)
	}
}

func (n *Network) bandwidthOf(k topology.LinkKind) float64 {
	const bytesPerNsPerGbps = 1.0 / 8.0
	topo := n.Cfg.Topo
	switch k {
	case topology.LinkHostUp, topology.LinkTorHostDown:
		return HostGbps * bytesPerNsPerGbps
	case topology.LinkLoopback:
		return 0 // infinite: virtual link inside the chip
	case topology.LinkTorSpineUp, topology.LinkSpineTorDown:
		// Full-bisection trunk (§7.1: "no oversubscription"): each ToR's
		// aggregate uplink capacity equals its host-facing capacity,
		// split across the pod's spines. Oversub shrinks it.
		trunk := fabricGbps * float64(topo.HostsPerRack) / float64(topo.SpinesPerPod)
		return trunk * bytesPerNsPerGbps / n.Cfg.Oversub
	default: // spine <-> core
		trunk := fabricGbps * float64(topo.RacksPerPod*topo.HostsPerRack) / float64(topo.Cores)
		return trunk * bytesPerNsPerGbps / n.Cfg.Oversub
	}
}

// NumProcs returns the total number of processes.
func (n *Network) NumProcs() int { return len(n.G.Hosts) * n.Cfg.ProcsPerHost }

// HostOfProc maps a process to its host index.
func (n *Network) HostOfProc(p ProcID) int { return int(p) / n.Cfg.ProcsPerHost }

// ClockOfProc returns the host clock a process stamps messages with.
func (n *Network) ClockOfProc(p ProcID) *clock.Clock { return n.Clocks[n.HostOfProc(p)] }

// AttachHost registers the receive callback for a host. Every packet
// destined to any process on the host — including beacons arriving on its
// ToR downlink — is delivered to rx.
func (n *Network) AttachHost(host int, rx func(*Packet)) { n.hostRx[host] = rx }

// uplink returns the host's single uplink.
func (n *Network) uplink(host int) *linkState {
	out := n.G.Out[n.G.Host(host)]
	return n.links[out[0]]
}

// PacketPool returns the fabric's packet free lists. The network takes its
// beacons from them and releases into them every packet it drops or
// consumes; hosts attached through core take and release theirs there too.
// They belong to the goroutine that drives Eng.
func (n *Network) PacketPool() *Pool { return &n.pool }

// SendFromHost injects a packet from a host into the network, charging host
// processing delay then the uplink. Beacon and commit packets go to the ToR
// (Dst ignored); data goes toward Dst's host.
func (n *Network) SendFromHost(host int, pkt *Packet) {
	pkt.SentAt = n.Eng.Now()
	n.Eng.After2(hostDelay, n.transmitFn, n.uplink(host), pkt)
}

// SendFromProc is SendFromHost keyed by source process.
func (n *Network) SendFromProc(p ProcID, pkt *Packet) {
	n.SendFromHost(n.HostOfProc(p), pkt)
}

// SetLossOverride is the runtime fault hook for fabric-wide loss bursts: a
// nonzero rate replaces every link profile's uniform Loss until it is
// cleared with 0. The draw point and RNG stream are those of the profile's
// own Loss, so a burst shifts no other draw.
func (n *Network) SetLossOverride(rate float64) { n.lossOverride = rate }

// transmit places a packet on a link's egress queue.
func (n *Network) transmit(l *linkState, pkt *Packet) {
	if l.dead {
		n.Stats.DeadDrop++
		n.pool.Put(pkt)
		return
	}
	now := n.Eng.Now()
	start := now
	if l.busy > start {
		start = l.busy
	}
	qdelay := start - now
	if n.Cfg.QueueLimit > 0 && qdelay > n.Cfg.QueueLimit {
		n.Stats.QueueDrop++
		n.pool.Put(pkt)
		return
	}
	pkt.QueueWait += qdelay
	if n.Cfg.ECNThreshold > 0 && qdelay > n.Cfg.ECNThreshold {
		pkt.ECN = true
		n.Stats.ECNMarks++
	}
	ser := sim.Time(0)
	if l.bpns > 0 {
		ser = sim.Time(float64(pkt.Size) / l.bpns)
	}
	l.busy = start + ser
	l.last = l.busy
	if pkt.Kind == KindBeacon || pkt.Kind == KindCommit || n.Cfg.Mode == ModeChip {
		if pkt.BarrierBE > l.lastTxBE {
			l.lastTxBE = pkt.BarrierBE
		}
		if pkt.BarrierC > l.lastTxC {
			l.lastTxC = pkt.BarrierC
		}
	}
	n.Stats.PktsByKind[pkt.Kind]++
	n.Stats.BytesByKind[pkt.Kind] += uint64(pkt.Size)
	// Uniform corruption: the runtime fault override when set (chaos loss
	// bursts), otherwise the link profile's Loss. Either way the draw comes
	// from n.rng at this exact point — the golden digests
	// were recorded against this draw sequence.
	loss := n.lossOverride
	if loss == 0 && l.imp != nil {
		loss = l.imp.Imp.Loss
	}
	if loss > 0 && n.rng.Float64() < loss {
		n.Stats.CorruptDrop++
		n.pool.Put(pkt) // corrupted in flight; bandwidth already consumed
		return
	}
	// Stateful loss models (Gilbert-Elliott bursts, duty-cycle windows)
	// draw from the per-link RNG — and draw nothing when unconfigured.
	if l.imp != nil && l.imp.dropBurst(now) {
		n.Stats.CorruptDrop++
		n.pool.Put(pkt)
		return
	}
	arrive := l.busy + l.prop
	if l.imp != nil && l.imp.Imp.Jitter > 0 {
		j := l.imp.Imp.Jitter
		// Bursty delay variance: mostly a small wiggle, occasionally a
		// straggler several times the nominal jitter (transient queueing
		// behind a burst) — the delay asymmetry that makes multi-path
		// ordering hazards real (§2.2.1).
		extra := sim.Time(n.rng.Int63n(int64(j)/3 + 1))
		if n.rng.Intn(20) == 0 {
			extra += sim.Time(n.rng.Int63n(int64(j) * 4))
		}
		arrive += extra
		// FIFO clamp: a jittered packet never overtakes its predecessor
		// on the same link (the barrier invariant rests on this).
		if arrive < l.lastArrival {
			arrive = l.lastArrival
		}
		l.lastArrival = arrive
	}
	if l.imp != nil {
		// ExtraDelay (RTT class) is constant per link and added after the
		// clamp: it shifts every arrival equally, preserving FIFO. The
		// reorder hold-back deliberately skips the clamp — it models a
		// non-FIFO link — and must not drag later packets via lastArrival.
		arrive += l.imp.Imp.ExtraDelay
		arrive += l.imp.reorderExtra()
	}
	n.Eng.At2(arrive, n.receiveFn, l, pkt)
}

// receive handles packet arrival at the downstream end of a link.
func (n *Network) receive(l *linkState, pkt *Packet) {
	node := n.nodes[l.to]
	if node.dead {
		n.Stats.DeadDrop++
		n.pool.Put(pkt)
		return
	}
	if !l.drained {
		l.lastRx = n.Eng.Now()
		if !l.alive {
			l.alive = true
			n.syncBE(l)
		}
		if !l.excludedC {
			node.regs.SetMember(l.slot, barrier.C, true)
		}
		// Update the per-input-link barrier registers (§4.1). With a
		// programmable chip every packet carries per-link-valid barriers
		// (rewritten each hop). With switch-CPU or host-delegate processing
		// the chip forwards data untouched, so data barriers are only valid
		// on the first (host) link — the host stamps every emission in
		// software, and with beacon piggybacking a busy uplink's standalone
		// beacons are suppressed in favor of exactly those stamps, so the
		// ToR must honor them or a continuously-loaded host's floor never
		// propagates and delivery stalls fabric-wide. Deeper links advance
		// from beacons and commit messages alone, matching §6.2.2. A
		// drained link skips all of this: straggler arrivals must not
		// re-admit it to aggregation, and its registers are pinned at
		// DrainedRegister.
		if pkt.Kind == KindBeacon || pkt.Kind == KindCommit || n.Cfg.Mode == ModeChip ||
			l.kind == topology.LinkHostUp {
			node.regs.Raise(l.slot, pkt.BarrierBE, pkt.BarrierC)
		}
	}

	if node.kind == topology.KindHost {
		n.Stats.Delivered++
		host := n.G.HostIndex(l.to)
		if rx := n.hostRx[host]; rx != nil {
			// Ownership transfers to the host layer: core's receive path
			// releases the packet once it is terminally consumed.
			n.Eng.After2(hostDelay, n.deliverFn, rx, pkt)
		} else {
			n.pool.Put(pkt)
		}
		return
	}

	// Aggregation advanced? Relay updated barriers downstream. With
	// synchronized beacon phases all inputs update near-simultaneously, so
	// this fires about once per interval per node and keeps the idle
	// barrier lag near one beacon interval end to end rather than one
	// interval per hop.
	be, c := node.regs.Out()
	if !n.Cfg.DisableBeacons && !n.Cfg.DisableEventRelay && (be > node.lastRelayBE || c > node.lastRelayC) {
		n.scheduleRelays(node)
	}

	switch pkt.Kind {
	case KindBeacon, KindCommit:
		// Hop-by-hop: consumed here; the barrier they carried now lives in
		// the input-link registers and will propagate via this switch's
		// own egress stamping and beacons.
		n.pool.Put(pkt)
		return
	}

	// Forward toward the destination host. The chip incarnation stamps
	// the aggregated barriers here, at the fixed-latency pipeline's entry:
	// every packet of this logical switch passes one uniform pipeline, so
	// stamp order equals wire order on every egress — the property the
	// per-link barrier promise rests on.
	if n.Cfg.Mode == ModeChip {
		pkt.BarrierBE, pkt.BarrierC = be, c
	}
	out := n.nextHop(node, pkt)
	if out == nil {
		n.Stats.DeadDrop++
		n.pool.Put(pkt)
		return
	}
	// A uniform pipeline latency per logical switch: a physical switch is
	// two logical halves (Fig. 3), each charging half the physical
	// forwarding delay. Uniformity — including for loopback-entered
	// packets — is load-bearing: different in-switch latencies would let
	// a later-stamped packet overtake an earlier one onto the same
	// egress, breaking barrier monotonicity on the link.
	n.Eng.After2(switchFwdDelay, n.transmitFn, out, pkt)
}

// nextHop picks the egress link toward pkt's destination host by the
// topology's up-down routing with ECMP (a lookup in its route table), or
// returns nil when no live link leads there.
func (n *Network) nextHop(node *nodeState, pkt *Packet) *linkState {
	hops := n.G.NextHops(node.id, n.G.Host(n.HostOfProc(pkt.Dst)))
	switch {
	case len(hops) == 0:
		return nil
	case len(hops) == 1:
		return n.links[hops[0]]
	case n.Cfg.FlowECMP:
		h := uint32(pkt.Src)*2654435761 + uint32(pkt.Dst)*40503
		return n.links[hops[h%uint32(len(hops))]]
	default:
		return n.links[hops[n.rng.Intn(len(hops))]]
	}
}

// NodeBarriers exposes a switch's current aggregated barriers (live
// reconfiguration seeds a joining host's link registers from them).
func (n *Network) NodeBarriers(id topology.NodeID) (be, c sim.Time) {
	return n.nodes[id].regs.Out()
}

// LinkRegisters exposes an input link's barrier registers. The controller
// reads a failed host's uplink commit register as its failure timestamp.
func (n *Network) LinkRegisters(id topology.LinkID) (be, c sim.Time) {
	l := n.links[id]
	return n.nodes[l.to].regs.Reg(l.slot)
}

// beaconProcDelay is the per-hop cost of generating a barrier beacon in the
// current incarnation: a pipeline pass for the chip, CPU processing for the
// switch CPU, and a switch-host round trip plus host processing for the
// delegate (§6.2).
func (n *Network) beaconProcDelay() sim.Time {
	switch n.Cfg.Mode {
	case ModeSwitchCPU:
		return cpuBeaconDelay
	case ModeHostDelegate:
		return hostDelegateDelay
	default:
		return switchFwdDelay
	}
}

// scheduleRelays arms a beacon on every egress link of a switch whose
// aggregated barrier advanced, rate-limited to one beacon per link per
// interval. Each relay is a two-step event: at trigger time the barrier
// stamp is captured — the same instant data packets passing through would
// be stamped — and the beacon enters the egress queue one processing delay
// later, so a beacon can never overtake a data packet whose timestamp its
// barrier does not cover. A rate-limit deferral moves the trigger itself,
// so the stamp is always fresh at capture.
//
// The links one call arms for the same trigger instant form a wave: one
// trigger event captures the node's barriers once, one fire event walks the
// chain in link order. Were each link its own pair of events, their
// sequence numbers would all be drawn inside this loop, where nothing else
// is scheduled for that instant, so they would run back to back in the
// same order with the same barriers: a wave moves no tie-break.
func (n *Network) scheduleRelays(node *nodeState) {
	if node.pending == len(node.out) {
		return // every egress link already has a beacon on its way
	}
	var at [waveLeaders]sim.Time
	var tail [waveLeaders]*linkState
	waves := 0
	for _, lid := range node.out {
		ls := n.links[lid]
		trigger, ok := n.claimRelay(node, ls)
		if !ok {
			continue
		}
		w := 0
		for w < waves && at[w] != trigger {
			w++
		}
		if w < waves {
			tail[w].waveNext, tail[w] = ls, ls
			continue
		}
		if waves < len(at) {
			at[waves], tail[waves] = trigger, ls
			waves++
		}
		n.Eng.At2(trigger, n.waveTriggerFn, node, ls)
	}
}

// waveLeaders is how many distinct trigger instants one scheduleRelays call
// chains links onto; a link deferred to yet another instant is a wave of its
// own. Under load a node's rate limits drift apart: on the 512-host
// sparse-fabric benchmark 4 leaves 1.5 % more events than 8, 16 saves 0.2 %.
const waveLeaders = 8

// claimRelay marks an egress link of node as having a beacon on its way and
// returns the instant its barriers are to be captured: now, or the earliest
// moment the link's rate limit allows. ok is false when the link already has
// one on its way or carries no beacons at all.
func (n *Network) claimRelay(node *nodeState, ls *linkState) (trigger sim.Time, ok bool) {
	if ls.beaconPending || ls.drained || ls.dead {
		return 0, false
	}
	ls.beaconPending = true
	node.pending++
	trigger = n.Eng.Now()
	if earliest := ls.lastBeaconTx + n.Cfg.BeaconInterval - n.beaconProcDelay(); earliest > trigger {
		trigger = earliest
	}
	return trigger, true
}

// fireBeacon emits a beacon carrying barriers captured at trigger time on
// one egress link. In chip mode a link that recently carried stamped
// traffic needs no beacon (§4.2: beacons are for idle links only).
func (n *Network) fireBeacon(node *nodeState, ls *linkState, be, c sim.Time) {
	ls.beaconPending = false
	node.pending--
	if ls.drained || ls.dead || node.dead {
		return
	}
	now := n.Eng.Now()
	if node.lastRelayBE < be {
		node.lastRelayBE = be
	}
	if node.lastRelayC < c {
		node.lastRelayC = c
	}
	if be <= ls.lastTxBE && c <= ls.lastTxC {
		return // traffic on this link already carried these barriers
	}
	ls.lastBeaconTx = now
	pkt := n.pool.Get()
	pkt.Kind, pkt.BarrierBE, pkt.BarrierC, pkt.Size = KindBeacon, be, c, BeaconBytes
	n.transmit(ls, pkt)
}

// startFallbackScan arms the liveness fallback for the switch egress links
// among links, which were all created at this instant: once per interval,
// any of them that sent no beacon for two intervals (for the chip: no
// beacon since stamped traffic last made one unnecessary) generates one.
// The event-driven relay path above carries the common case; the scan
// guarantees liveness after beacon loss or when upstream barriers stall.
//
// One ticker serves the whole cohort. A ticker per link, armed back to
// back, would fire as one contiguous block in link order at every tick,
// and a due link always triggers at the tick itself, so one scan in link
// order is that block, event for event. A cohort per creation instant
// rather than one scan for the fabric keeps grown links on their own grid.
func (n *Network) startFallbackScan(links []*linkState) {
	var cohort []*linkState
	for _, ls := range links {
		if n.G.Node(ls.from).Kind != topology.KindHost { // hosts beacon from their 1Pipe endpoint
			cohort = append(cohort, ls)
		}
	}
	if len(cohort) == 0 {
		return
	}
	n.tickers = append(n.tickers, sim.NewTicker(n.Eng, n.Cfg.BeaconInterval, 0, func() {
		n.fallbackScan(n.Eng.Now(), cohort)
	}))
}

// fallbackScan is one pass of the fallback over a cohort.
func (n *Network) fallbackScan(now sim.Time, cohort []*linkState) {
	// Pure liveness fallback: stay out of the way of the event-driven relay
	// wave, which self-clocks at one beacon per interval — competing with
	// it would steal its rate-limit slot and add a full interval of barrier
	// lag. With event relays ablated away the scan IS the relay and runs
	// every interval, as the paper describes: no holdoff, claimRelay's rate
	// limit lands the trigger exactly on the tick.
	holdoff := 2 * n.Cfg.BeaconInterval
	if n.Cfg.DisableEventRelay {
		holdoff = 0
	}
	for _, ls := range cohort {
		node := n.nodes[ls.from]
		if node.dead || now-ls.lastBeaconTx < holdoff {
			continue
		}
		if trigger, ok := n.claimRelay(node, ls); ok {
			n.Eng.At2(trigger, n.waveTriggerFn, node, ls)
		}
	}
}

// startDeadLinkScanner arms the per-switch input-link timeout (§4.2):
// after DeadLinkBeacons silent intervals an input link is removed from
// aggregation and the controller hook is notified once.
func (n *Network) startDeadLinkScanner() {
	if n.Cfg.DisableBeacons {
		return
	}
	tk := sim.NewTicker(n.Eng, n.Cfg.BeaconInterval, 0, func() {
		n.scanLinks(n.Eng.Now(), n.links)
	})
	n.tickers = append(n.tickers, tk)
}

// scanLinks is one dead-link scan pass (§4.2): after DeadLinkBeacons silent
// intervals an input link is removed from aggregation and reported once.
func (n *Network) scanLinks(now sim.Time, links []*linkState) {
	timeout := DeadLinkBeacons * n.Cfg.BeaconInterval
	for _, l := range links {
		// Host-terminating links are scanned too: §4.2's detection runs
		// in lib1pipe's polling thread as much as in switches, and a
		// host whose downlink went silent must be reported so the
		// controller can fail it (it will never deliver again). A
		// drained link is silent by design — graceful departure must
		// never masquerade as a failure, so it is skipped before the
		// timeout check rather than relying on alive alone (a straggler
		// cannot resurrect it either; receive checks drained too).
		if l.drained || !l.alive {
			continue
		}
		if now-l.lastRx > timeout {
			node := n.nodes[l.to]
			l.alive = false
			n.syncBE(l)
			if !n.Cfg.ControllerManagedCommit {
				node.regs.SetMember(l.slot, barrier.C, false)
			}
			// Removing the slowest input usually advances the min:
			// relay the unblocked barrier immediately (§4.2).
			n.scheduleRelays(node)
			if n.OnLinkDead != nil {
				n.OnLinkDead(n.G.Link(l.id))
			}
		}
	}
}

// EnableObs arms a sampler that records, every interval, how far each
// switch's aggregated barriers trail the true simulation clock
// (SpanSwitchLagBE/C — the in-network contribution to delivery latency)
// and the current queueing backlog of every switch egress link
// (SpanSwitchQDepth). Host nodes are skipped: their barrier state lives in
// the core endpoint, not in the fabric. Returns the trace for merging into
// experiment reports.
func (n *Network) EnableObs(interval sim.Time) *obs.Trace {
	if n.Obs != nil {
		return n.Obs
	}
	if interval <= 0 {
		interval = n.Cfg.BeaconInterval
	}
	n.Obs = obs.NewTrace()
	tk := sim.NewTicker(n.Eng, interval, 0, func() {
		now := n.Eng.Now()
		for _, node := range n.nodes {
			if node.kind == topology.KindHost || node.dead || n.G.NodeDrained(node.id) {
				continue
			}
			be, c := node.regs.Last()
			n.Obs.Rec(obs.SpanSwitchLagBE, now-be)
			n.Obs.Rec(obs.SpanSwitchLagC, now-c)
			for _, lid := range node.out {
				l := n.links[lid]
				depth := l.busy - now
				if depth < 0 {
					depth = 0
				}
				n.Obs.Rec(obs.SpanSwitchQDepth, depth)
			}
		}
	})
	n.tickers = append(n.tickers, tk)
	return n.Obs
}

// CommitGatedLinks lists input links that the best-effort scanner has
// removed but that still gate the commit plane, awaiting the controller's
// Resume step.
func (n *Network) CommitGatedLinks() []topology.LinkID {
	var out []topology.LinkID
	for _, l := range n.links {
		if !l.alive && n.nodes[l.to].regs.Member(l.slot, barrier.C) {
			out = append(out, l.id)
		}
	}
	return out
}

// ResumeCommitPlane removes a dead input link from commit-plane aggregation.
// The controller calls this in its Resume step, after every correct process
// has finished Discard, Recall and its failure callbacks (§5.2).
func (n *Network) ResumeCommitPlane(id topology.LinkID) {
	l := n.links[id]
	node := n.nodes[l.to]
	node.regs.SetMember(l.slot, barrier.C, false)
	n.scheduleRelays(node)
}

// ExcludeCommitPlane permanently removes a link from commit-plane
// aggregation: unlike ResumeCommitPlane, later packet arrivals do not
// re-admit it. The controller calls this for the remaining live links of a
// process it has declared failed — a failed host that can still transmit
// (only its receive path died) would otherwise keep a parked commit floor
// in the aggregation and cap the cluster-wide barrier (§5.2).
func (n *Network) ExcludeCommitPlane(id topology.LinkID) {
	l := n.links[id]
	node := n.nodes[l.to]
	l.excludedC = true
	node.regs.SetMember(l.slot, barrier.C, false)
	n.scheduleRelays(node)
}

// DrainedRegister is the sentinel the registers of a drained link are
// raised to: any aggregation that accidentally included it could only
// advance the minimum, never regress it. MaxBarrier skips it.
const DrainedRegister = sim.Time(1) << 62

// Grow extends the simulator's state to cover nodes and links appended to
// the topology since construction (or the previous Grow). New links start
// drained — invisible to aggregation, beacons and the dead-link scanner —
// until AdmitLink seeds their registers and admits them (two-phase
// prepare/activate). New hosts get a clock and an empty receive hook.
// Adjacency views of existing nodes are refreshed, since topology growth
// may have reallocated the underlying slices. Returns the new link IDs.
func (n *Network) Grow() []topology.LinkID {
	g := n.G
	now := n.Eng.Now()
	for i := len(n.nodes); i < len(g.Nodes); i++ {
		n.nodes = append(n.nodes, n.newNodeState(topology.NodeID(i)))
	}
	for hi := len(n.Clocks); hi < len(g.Hosts); hi++ {
		n.Clocks = append(n.Clocks, clock.New(n.Eng, n.Eng.Rand(), n.Cfg.Clock))
		n.hostRx = append(n.hostRx, nil)
	}
	first := len(n.links)
	var added []topology.LinkID
	for i := first; i < len(g.Links); i++ {
		ls := n.newLinkState(g.Links[i])
		ls.drained = true
		ls.lastRx = now
		n.links = append(n.links, ls)
		added = append(added, ls.id)
	}
	for i, node := range n.nodes {
		node.out = g.Out[i]
	}
	if !n.Cfg.DisableBeacons {
		n.startFallbackScan(n.links[first:])
	}
	return added
}

// AdmitLink seeds an input link's §4.1 registers and admits it to barrier
// aggregation — the activate step of a two-phase join. Callers derive the
// seed from the join epoch T_join; AdmitLink additionally clamps it to the
// downstream node's current aggregated output, so admitting a link can
// never hold the minimum below where it already advanced.
func (n *Network) AdmitLink(id topology.LinkID, seedBE, seedC sim.Time) {
	l := n.links[id]
	node := n.nodes[l.to]
	outBE, outC := node.regs.Last()
	node.regs.Raise(l.slot, max(seedBE, outBE), max(seedC, outC))
	l.drained = false
	l.excludedC = false
	l.alive = true
	n.syncBE(l)
	node.regs.SetMember(l.slot, barrier.C, true)
	l.lastRx = n.Eng.Now()
	if node.kind != topology.KindHost {
		n.scheduleRelays(node)
	}
}

// DrainLink gracefully removes an input link from aggregation: registers
// are raised to DrainedRegister and the drained flag keeps both the
// dead-link scanner and straggler packet arrivals from ever treating the
// ensuing silence as a failure — no OnLinkDead report, no failure
// timestamp, no Recall.
func (n *Network) DrainLink(id topology.LinkID) {
	l := n.links[id]
	node := n.nodes[l.to]
	l.drained = true
	l.alive = false
	n.syncBE(l)
	node.regs.SetMember(l.slot, barrier.C, false)
	l.excludedC = true
	node.regs.Raise(l.slot, DrainedRegister, DrainedRegister)
	if node.kind != topology.KindHost {
		// Removing an input can only advance the min: relay it.
		n.scheduleRelays(node)
	}
}

// LinkDrained reports whether a link is currently drained (or grown but
// not yet admitted).
func (n *Network) LinkDrained(id topology.LinkID) bool { return n.links[id].drained }

// MaxBarrier returns the largest barrier value present anywhere in the
// fabric — input-link registers, in-flight egress stamps and aggregated
// switch outputs on both planes, drained links excluded. Join epochs are
// chosen above it plus a skew bound covering ahead-running host clocks.
func (n *Network) MaxBarrier() sim.Time {
	var m sim.Time
	for _, l := range n.links {
		if l.drained {
			continue
		}
		be, c := n.nodes[l.to].regs.Reg(l.slot)
		m = max(m, be, c, l.lastTxBE, l.lastTxC)
	}
	for _, node := range n.nodes {
		be, c := node.regs.Last()
		m = max(m, be, c)
	}
	return m
}

// RunFor, TotalStats and ExecutedEvents forward to Eng and Stats; they are
// part of the surface benchmark/ drives the network through (its README,
// "What the benchmark depends on").

// RunFor advances the simulation by d.
func (n *Network) RunFor(d sim.Time) { n.Eng.RunFor(d) }

// TotalStats returns the network statistics.
func (n *Network) TotalStats() Stats { return n.Stats }

// ExecutedEvents returns the number of events executed so far.
func (n *Network) ExecutedEvents() uint64 { return n.Eng.Executed }

// Stop halts all periodic activity so the event queue can drain.
func (n *Network) Stop() {
	for _, tk := range n.tickers {
		tk.Stop()
	}
	n.tickers = nil
}

// String summarizes the network for logs.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{hosts=%d procs=%d mode=%s beacon=%v}",
		len(n.G.Hosts), n.NumProcs(), n.Cfg.Mode, n.Cfg.BeaconInterval)
}
