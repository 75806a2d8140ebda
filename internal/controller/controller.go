// Package controller implements 1Pipe's highly available network
// controller (§5.2): it detects component failures from switch reports,
// determines which processes failed and when (the failure timestamp),
// records the decision in a Raft-replicated store, broadcasts it to every
// correct process (Discard / Recall / Callback), and finally resumes
// commit-plane barrier propagation once all completions arrive.
package controller

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/raft"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
)

// The controller deployment: a 3-replica store on a management network
// with 10 us one-way latency.
const (
	// replicas is the Raft group size backing the controller store.
	replicas = 3
	// mgmtDelay is the one-way management-network latency between the
	// controller and any host or switch.
	mgmtDelay = 10 * sim.Microsecond
	// perHostCost is the controller's serialization cost per contacted
	// host during Broadcast (§7.2: recovery grows 3-15us per host at
	// scale because the controller must reach every process).
	perHostCost = 3 * sim.Microsecond
	// aggregationWindow batches near-simultaneous dead-link reports (a
	// ToR failure produces one report per spine) into one failure event.
	aggregationWindow = 10 * sim.Microsecond
)

// FailureRecord is the replicated decision for one failure event.
type FailureRecord struct {
	// Procs maps each failed process to its failure timestamp.
	Procs map[netsim.ProcID]sim.Time
	// DetectedAt is when the first report arrived.
	DetectedAt sim.Time
}

// RecallRecord is a durably recorded undeliverable recall, consulted by
// recovering receivers.
type RecallRecord struct {
	Src, Dst netsim.ProcID
	TS       sim.Time
}

// EpochOp enumerates live-reconfiguration operations.
type EpochOp uint8

const (
	// EpochJoinHost attaches a new host to a running fabric.
	EpochJoinHost EpochOp = iota
	// EpochDrainHost gracefully removes a host.
	EpochDrainHost
	// EpochDrainSwitch gracefully removes a physical switch.
	EpochDrainSwitch
	// EpochAddSwitch grows a pod's spine set.
	EpochAddSwitch
)

func (op EpochOp) String() string {
	switch op {
	case EpochJoinHost:
		return "join-host"
	case EpochDrainHost:
		return "drain-host"
	case EpochDrainSwitch:
		return "drain-switch"
	case EpochAddSwitch:
		return "add-switch"
	}
	return "?"
}

// EpochRecord is the replicated decision for one membership change. Like
// failure records, an epoch is decided exactly once and survives leader
// changes: a host dying mid-join is resolved by the §5.2 failure path
// against the recorded epoch (its registers were seeded at TJoin, so its
// failure timestamp can never precede the epoch).
type EpochRecord struct {
	// Seq is the epoch sequence number (1-based, in decision order).
	Seq int
	// Op is the membership operation.
	Op EpochOp
	// Host is the host index joining or draining (join/drain-host ops).
	Host int
	// Phys is the physical switch index (drain-switch/add-switch ops).
	Phys int
	// TJoin is the join epoch timestamp: every input-link register of the
	// new attachment is pre-seeded to it, and the joining host's clock is
	// forced above it. Zero for drains.
	TJoin sim.Time
	// At is the decision time.
	At sim.Time
}

// Controller coordinates failure handling for one simulated cluster.
type Controller struct {
	net  *netsim.Network
	cl   *core.Cluster
	Raft *raft.Cluster

	// Replicated state (applied from the Raft log on the leader).
	Failures []FailureRecord
	Recalls  []RecallRecord
	Epochs   []EpochRecord

	// In-flight detection state: whether dead-link reports await a
	// Determine step, and when the earliest of them was raised.
	reported   bool
	reportedAt sim.Time
	windowOpen bool
	busy       bool
	// declared marks every host already covered by a FailureRecord: a
	// failure timestamp is decided exactly once.
	declared map[int]bool

	// RecoveryTime samples barrier-stall durations (detect -> resume) for
	// the Fig. 10 experiment.
	RecoveryTime stats.Sample
	// ForwardedMsgs counts messages relayed by Controller Forwarding.
	ForwardedMsgs uint64
	// OnForward, if set, observes every packet relayed by Controller
	// Forwarding before it reaches the receiver. Forwarded traffic carries
	// the §5.2 partition caveat — only locally ordered — so test harnesses
	// use this to mark the affected scatterings.
	OnForward func(pkt *netsim.Packet)
	// OnRecovered fires after each completed failure-handling round.
	OnRecovered func(rec FailureRecord)
}

// New deploys the controller over a cluster: it hooks the network's
// dead-link reports, the hosts' stuck-message escalation, and builds the
// Raft store on the same engine.
func New(net *netsim.Network, cl *core.Cluster) *Controller {
	c := &Controller{net: net, cl: cl, declared: make(map[int]bool)}
	c.Raft = buildRaft(net, c)
	net.OnLinkDead = func(topology.Link) {
		// Switch -> controller report over the management network.
		at := net.Eng.Now()
		net.Eng.After(mgmtDelay, func() { c.onReport(at) })
	}
	for _, h := range cl.Hosts {
		h := h
		h.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) { c.onStuck(h, src, dst, ts) }
	}
	return c
}

// buildRaft constructs the replicated store backing a controller: every
// replica applies the committed log; the controller reads replica 0's
// materialized state.
func buildRaft(net *netsim.Network, c *Controller) *raft.Cluster {
	return raft.NewCluster(net.Eng, replicas, raft.DefaultConfig(), func(node, index int, cmd any) {
		if node != 0 {
			return // single logical view: apply on replica 0's state
		}
		switch rec := cmd.(type) {
		case FailureRecord:
			c.Failures = append(c.Failures, rec)
		case RecallRecord:
			c.Recalls = append(c.Recalls, rec)
		case EpochRecord:
			c.Epochs = append(c.Epochs, rec)
		}
	})
}

// onReport records a dead-link report raised at time at and opens an
// aggregation window so one physical failure is handled as one event
// (Detect step).
func (c *Controller) onReport(at sim.Time) {
	if !c.reported {
		c.reported, c.reportedAt = true, at
	}
	if c.windowOpen {
		return
	}
	c.windowOpen = true
	c.net.Eng.After(aggregationWindow, c.determine)
}

// determine computes the failed process set and failure timestamps
// (Determine step): a process is failed iff its host is disconnected from
// the routing graph, and its failure timestamp is the largest commit
// register on its host's out-links, read as the controller blocks them.
func (c *Controller) determine() {
	c.windowOpen = false
	if c.busy {
		// A handling round is in flight; re-arm to pick these reports up
		// afterwards.
		c.net.Eng.After(aggregationWindow, c.determine)
		c.windowOpen = true
		return
	}
	if !c.reported {
		return
	}
	c.reported = false
	g := c.net.G
	pph := c.net.Cfg.ProcsPerHost

	failed := make(map[netsim.ProcID]sim.Time)
	for hi := 0; hi < len(g.Hosts); hi++ {
		host := g.Host(hi)
		// A drained (or not-yet-activated joining) host is out of the
		// fabric by decision, not by failure: no failure timestamp, no
		// Recall, no declaration.
		if c.declared[hi] || g.NodeDrained(host) || g.HostConnected(host) {
			continue
		}
		// Disable the host's surviving ports (§5.2: the controller blocks
		// the failed process at the switch) and take fts from its uplink
		// commit registers at the instant of the block: commit gating
		// guarantees nothing above them was — or can be — delivered before
		// Discard installs. A half-connected host (dead receive path, live
		// uplink) keeps announcing commits until this block, so only the
		// registers read at the block bound what was delivered.
		fts := sim.Time(0)
		for _, lid := range g.Out[host] {
			if _, uc := c.net.LinkRegisters(lid); uc > fts {
				fts = uc
			}
			if !g.LinkDead(lid) {
				g.KillLink(lid)
			}
		}
		c.declared[hi] = true
		for p := hi * pph; p < (hi+1)*pph; p++ {
			failed[netsim.ProcID(p)] = fts
		}
	}

	rec := FailureRecord{Procs: failed, DetectedAt: c.reportedAt}
	// Snapshot the commit-gated link set NOW: the Resume step at the end of
	// this round must unblock only the links this round's failure gated. A
	// component that dies while this round is in flight gates its own links,
	// and those must stay gated (holding the commit barrier below the new
	// failure timestamp) until the round that handles it finishes its
	// Discard/Recall — resuming them early lets some receivers deliver
	// messages other receivers are about to discard (§5.2).
	gated := c.net.CommitGatedLinks()
	c.busy = true
	c.replicate(rec, func() { c.broadcast(rec, gated) })
}

// hostConnected is the §5.2 liveness rule (topology.Graph.HostConnected)
// with drains on top: a drained host is out of the fabric by decision.
func (c *Controller) hostConnected(host topology.NodeID) bool {
	return !c.net.G.NodeDrained(host) && c.net.G.HostConnected(host)
}

const retryDelay = 1 * sim.Millisecond

// replicate commits a record (failure or epoch) through the Raft store
// before acting on it (the controller must not broadcast a decision it
// could forget). Records are idempotent at hosts, so a leadership change
// mid-commit is handled by re-proposing.
func (c *Controller) replicate(rec any, then func()) {
	leader := c.Raft.Leader()
	if leader == nil {
		// Controller replicas electing: retry; the barrier stays stalled,
		// which is safe.
		c.net.Eng.After(retryDelay, func() { c.replicate(rec, then) })
		return
	}
	idx, _, ok := leader.Propose(rec)
	if !ok {
		c.net.Eng.After(retryDelay, func() { c.replicate(rec, then) })
		return
	}
	var poll func()
	poll = func() {
		if leader.CommitIndex() >= idx {
			then()
			return
		}
		if leader.Stopped() || leader.Role() != raft.Leader {
			c.replicate(rec, then)
			return
		}
		c.net.Eng.After(20*sim.Microsecond, poll)
	}
	poll()
}

// completionSweep is how often the controller re-checks the hosts it is
// still waiting on during a broadcast round. A host that crashes after
// being handed ApplyFailure can never report completion; without the sweep
// one cascading failure would wedge the round forever — busy never clears,
// later failures are never determined, and the commit plane stays stalled
// cluster-wide.
const completionSweep = 100 * sim.Microsecond

// broadcast sends the failure record to every correct host and collects
// completions (Broadcast / Discard / Recall / Callback steps), then
// resumes the commit plane.
func (c *Controller) broadcast(rec FailureRecord, gated []topology.LinkID) {
	eng := c.net.Eng
	failedHosts := make(map[int]bool)
	for p := range rec.Procs {
		failedHosts[c.net.HostOfProc(p)] = true
	}
	waiting := 0
	pending := make(map[int]bool)
	var resume func()
	done := func(hi int) {
		// Host -> controller completion, one management hop back.
		eng.After(mgmtDelay, func() {
			if !pending[hi] {
				return // already written off by the sweep
			}
			delete(pending, hi)
			waiting--
			if waiting == 0 {
				resume()
			}
		})
	}
	resume = func() {
		// Resume step: unblock the links this round's failure gated (and
		// only those — see the snapshot in determine).
		for _, lid := range gated {
			c.net.ResumeCommitPlane(lid)
		}
		// A failed host's surviving links leave barrier aggregation for
		// good. A host declared failed because its receive path died can
		// still transmit, and its commit floor — parked, since ACKs can
		// never reach it — would otherwise cap the cluster barrier (§5.2).
		for hi := range failedHosts {
			for _, lid := range c.net.G.Out[c.net.G.Host(hi)] {
				c.net.ExcludeCommitPlane(lid)
			}
		}
		c.RecoveryTime.Add(float64(eng.Now()-rec.DetectedAt) / float64(sim.Microsecond))
		c.busy = false
		if c.OnRecovered != nil {
			c.OnRecovered(rec)
		}
	}
	if len(rec.Procs) == 0 {
		// Pure fabric failure (core link/switch): no process failed; no
		// host involvement needed (§7.2: "only the controller needs to
		// be involved").
		eng.After(2*mgmtDelay, resume)
		return
	}
	i := 0
	for hi, h := range c.cl.Hosts {
		if failedHosts[hi] || c.net.G.NodeDrained(c.net.G.Host(hi)) {
			continue
		}
		waiting++
		pending[hi] = true
		hi, h := hi, h
		// The controller serializes its broadcast: each additional host
		// costs PerHostCost of controller CPU/NIC time.
		eng.After(mgmtDelay+sim.Time(i)*perHostCost, func() { h.ApplyFailure(rec.Procs, func() { done(hi) }) })
		i++
	}
	if waiting == 0 {
		resume()
		return
	}
	// Write off hosts that die mid-round: their own failure is a new
	// report round, but this round must not block on their completion.
	var sweep func()
	sweep = func() {
		if waiting == 0 {
			return
		}
		for hi := range pending {
			if !c.hostConnected(c.net.G.Host(hi)) {
				delete(pending, hi)
				waiting--
			}
		}
		if waiting == 0 {
			resume()
			return
		}
		eng.After(completionSweep, sweep)
	}
	eng.After(completionSweep, sweep)
}

// onStuck handles a sender that exhausted retransmissions toward dst
// (§5.2 Controller Forwarding): if dst is still connected — a network
// partition between the pair — the controller relays the pending messages
// itself and acknowledges the sender on the receiver's behalf. If dst is
// truly unreachable, the undeliverable recall is recorded durably and the
// sender released.
func (c *Controller) onStuck(h *core.Host, src, dst netsim.ProcID, ts sim.Time) {
	eng := c.net.Eng
	eng.After(mgmtDelay, func() {
		dstHost := c.net.G.Host(c.net.HostOfProc(dst))
		if c.hostConnected(dstHost) {
			c.forward(h, src, dst)
			return
		}
		rec := RecallRecord{Src: src, Dst: dst, TS: ts}
		leader := c.Raft.Leader()
		if leader != nil {
			leader.Propose(rec)
		}
		eng.After(mgmtDelay, func() { h.ResolveUnreachable(dst, ts) })
	})
}

// forward relays every pending reliable packet from src to dst over the
// management network and returns the ACKs to the sender — "S asks
// controller to forward the message to R, and waits for ACK from the
// controller". Note the paper's partition caveat applies: a receiver cut
// off from part of the fabric no longer aggregates the missing senders'
// barriers, so deliveries during a partition are only locally ordered.
func (c *Controller) forward(h *core.Host, src, dst netsim.ProcID) {
	eng := c.net.Eng
	pkts := h.PendingTo(src, dst)
	if len(pkts) == 0 {
		return
	}
	dstHost := c.cl.Hosts[c.net.HostOfProc(dst)]
	for _, pkt := range pkts {
		pkt := pkt
		c.ForwardedMsgs++
		if c.OnForward != nil {
			c.OnForward(pkt)
		}
		eng.After(mgmtDelay, func() {
			// Acknowledge on the receiver's behalf: the receiver's own
			// ACK would die on the partitioned path. Built before the
			// handoff — HandlePacket consumes pkt.
			ack := &netsim.Packet{
				Kind: netsim.KindAck, Src: pkt.Dst, Dst: pkt.Src,
				PSN: pkt.PSN, MsgTS: pkt.MsgTS, Reliable: pkt.Reliable,
				Size: netsim.BeaconBytes,
			}
			dstHost.HandlePacket(pkt)
			eng.After(mgmtDelay, func() { h.HandlePacket(ack) })
		})
	}
}

// ProposeEpoch durably records a membership change through the Raft store
// and runs then once committed. The sequence number is assigned here from
// the materialized epoch count so concurrent operations serialize in
// decision order.
func (c *Controller) ProposeEpoch(rec EpochRecord, then func()) {
	rec.Seq = len(c.Epochs) + 1
	rec.At = c.net.Eng.Now()
	c.replicate(rec, then)
}

// AttachHost installs the stuck-message escalation hook on a host joined
// after the controller was built (New only wires the hosts present at
// construction).
func (c *Controller) AttachHost(h *core.Host) {
	h.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) { c.onStuck(h, src, dst, ts) }
}

// RecoverHost replays all recorded failures and undeliverable recalls to a
// recovered host so it delivers or discards its buffered messages
// consistently with the rest of the cluster (Receiver Recovery, §5.2).
func (c *Controller) RecoverHost(hi int) {
	h := c.cl.Hosts[hi]
	for _, rec := range c.Failures {
		own := make(map[netsim.ProcID]sim.Time)
		for p, ts := range rec.Procs {
			if c.net.HostOfProc(p) != hi {
				own[p] = ts
			}
		}
		if len(own) > 0 {
			h.ApplyFailure(own, func() {})
		}
	}
	for _, rr := range c.Recalls {
		if c.net.HostOfProc(rr.Dst) == hi {
			h.ApplyRecallTombstone(rr.Src, rr.TS)
		}
	}
}
