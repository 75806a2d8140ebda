// Package reconfig implements epoch-based live reconfiguration of a
// running 1Pipe fabric: host join/leave and switch add/drain without
// stopping traffic and without ever regressing any receiver's delivered
// barrier.
//
// Every membership change is an epoch, durably decided through the
// Raft-backed controller before the fabric is touched (when a controller
// is attached). Joins are two-phase: the grown topology is prepared
// invisible to routing and barrier aggregation, then activated atomically
// once the epoch commits. The activation seeds every new input-link
// register so the aggregated minimum can only move forward:
//
//   - A link leaving the joining host is seeded at the effective join
//     epoch eff = max(T_join, downstream aggregated outputs), and the
//     host's clock and timestamp floor are forced above eff first — the
//     host can never emit below what its register promised.
//   - Any other new link is seeded at its upstream node's current
//     aggregated output: min-aggregation along the routing DAG is
//     monotone, so everything the upstream node emits later carries at
//     least that barrier.
//
// Drains are the graceful dual of §5.2 failure handling, sharing none of
// its machinery: the departing component flushes its send window, its
// registers are raised to the drained sentinel and removed from
// aggregation, and routing stops using it. No failure timestamp is
// assigned, no Recall is initiated, no OnStuck report fires. In-flight
// sends toward a departed host resolve through the ordinary send-failure
// path. A host dying mid-join is resolved by the existing §5.2 pipeline:
// the Raft-recorded epoch pins its registers at T_join, so its failure
// timestamp can never precede the epoch.
package reconfig

import (
	"fmt"

	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Engine drives live reconfiguration of one simulated fabric.
type Engine struct {
	Net  *netsim.Network
	Cl   *core.Cluster
	Ctrl *controller.Controller // optional; nil skips durable epochs

	// Log records every epoch this engine decided, in order, including
	// runs without an attached controller.
	Log []controller.EpochRecord

	// Epoch activations must apply in decision order even though each one
	// learns of its commit from an independent poller: two overlapping
	// joins activated out of order would append hosts to the cluster out
	// of index order. next is the last Seq applied; ready parks callbacks
	// whose predecessors have not committed yet.
	next  int
	ready map[int]func()
}

// New builds an engine over a deployed cluster. ctrl may be nil (e.g. in
// microbenchmarks); epochs are then applied without durable replication.
func New(net *netsim.Network, cl *core.Cluster, ctrl *controller.Controller) *Engine {
	return &Engine{Net: net, Cl: cl, Ctrl: ctrl}
}

// SkewBound is added to the observed fabric maximum barrier when choosing a
// join epoch, covering host clocks running ahead of the registers.
func (e *Engine) SkewBound() sim.Time {
	return 2*e.Net.Cfg.Clock.MaxOffset + 2*sim.Microsecond
}

// propose records the epoch durably (through the controller's Raft store
// when present) and runs then once committed — in Seq order, even when a
// later epoch's commit poller reports first.
func (e *Engine) propose(rec controller.EpochRecord, then func()) {
	rec.Seq = len(e.Log) + 1
	e.Log = append(e.Log, rec)
	rec.At = e.Net.Eng.Now()
	run := func() { e.applyInOrder(rec.Seq, then) }
	if e.Ctrl != nil {
		e.Ctrl.ProposeEpoch(rec, run)
		return
	}
	run()
}

// applyInOrder parks an activation until every earlier epoch has applied,
// then drains the ready queue in sequence.
func (e *Engine) applyInOrder(seq int, then func()) {
	if e.ready == nil {
		e.ready = make(map[int]func())
	}
	e.ready[seq] = then
	for {
		f, ok := e.ready[e.next+1]
		if !ok {
			return
		}
		e.next++
		delete(e.ready, e.next)
		f()
	}
}

// JoinHost attaches a new host under the given pod and rack of a running
// fabric. The host index is returned synchronously; done fires — on the
// simulation event loop — once the epoch has committed and the host is
// activated, carrying the live endpoint and the effective join epoch
// (every timestamp the host ever emits exceeds it; every register of its
// links was seeded at least to it).
func (e *Engine) JoinHost(pod, rack int, done func(h *core.Host, eff sim.Time)) (int, error) {
	g := e.Net.G
	id, links, err := g.AddHost(pod, rack)
	if err != nil {
		return -1, err
	}
	hi := g.HostIndex(id)
	// Prepare: invisible to routing until activation. Grown link state
	// starts drained — excluded from aggregation, beacons and the
	// dead-link scanner.
	g.DrainNode(id)
	e.Net.Grow()

	tj := e.Net.MaxBarrier() + e.SkewBound()
	rec := controller.EpochRecord{Op: controller.EpochJoinHost, Host: hi, TJoin: tj}
	e.propose(rec, func() {
		// Activate. The effective floor is computed BEFORE the host's
		// clock is forced: AdmitLink clamps a seed up to the downstream
		// node's current aggregated output, and the host floor must match
		// the post-clamp register value or the host could emit a
		// timestamp inside (tj, out) in violation of the register's
		// promise.
		eff := tj
		for _, lid := range links {
			l := g.Link(lid)
			if l.From != id {
				continue
			}
			if be, c := e.Net.NodeBarriers(l.To); be > eff || c > eff {
				eff = max(eff, max(be, c))
			}
		}
		h := e.Cl.AddHost(hi, eff)
		for _, lid := range links {
			l := g.Link(lid)
			if l.From == id {
				e.Net.AdmitLink(lid, eff, eff)
			} else {
				be, c := e.Net.NodeBarriers(l.From)
				e.Net.AdmitLink(lid, be, c)
			}
		}
		g.UndrainNode(id)
		if e.Ctrl != nil {
			e.Ctrl.AttachHost(h)
		}
		if done != nil {
			done(h, eff)
		}
	})
	return hi, nil
}

// DrainHost gracefully removes a host: new sends are refused immediately,
// the send window flushes (beacons, retransmissions and ACKs keep
// running), then the epoch commits, the host leaves routing and barrier
// aggregation, and the endpoint stops. done fires after the host is fully
// detached. Peers' in-flight sends toward it resolve via send-failure.
func (e *Engine) DrainHost(hi int, done func()) error {
	g := e.Net.G
	if hi < 0 || hi >= len(e.Cl.Hosts) {
		return fmt.Errorf("reconfig: no such host %d", hi)
	}
	id := g.Host(hi)
	if g.NodeDead(id) || g.NodeDrained(id) {
		return fmt.Errorf("reconfig: host %d already dead or drained", hi)
	}
	h := e.Cl.Hosts[hi]
	if h.Draining() {
		return fmt.Errorf("reconfig: host %d already draining", hi)
	}
	h.Drain(func() {
		rec := controller.EpochRecord{Op: controller.EpochDrainHost, Host: hi}
		e.propose(rec, func() {
			g.DrainNode(id)
			// Outputs first: pinning the host's uplink register removes
			// its floor from the ToR's aggregation without ever letting a
			// recompute relay the sentinel onward (the receiving links
			// ignore drained inputs).
			for _, lid := range g.Out[id] {
				e.Net.DrainLink(lid)
			}
			for _, lid := range g.In[id] {
				e.Net.DrainLink(lid)
			}
			h.Stop()
			if done != nil {
				done()
			}
		})
	})
	return nil
}

// DrainSwitch gracefully removes a physical switch (both logical halves).
// Routing is updated first; after a settle delay for in-flight packets,
// the switch's links leave barrier aggregation. Draining a switch that
// would disconnect any pair of live hosts is rejected. done fires after
// the links are detached.
func (e *Engine) DrainSwitch(phys int, done func()) error {
	g := e.Net.G
	var halves []topology.NodeID
	for _, nd := range g.Nodes {
		if nd.Phys == phys && nd.Kind != topology.KindHost {
			halves = append(halves, nd.ID)
		}
	}
	if len(halves) == 0 {
		return fmt.Errorf("reconfig: no switch with phys %d", phys)
	}
	for _, id := range halves {
		if g.NodeDead(id) || g.NodeDrained(id) {
			return fmt.Errorf("reconfig: switch phys %d already dead or drained", phys)
		}
	}
	// Deroute tentatively, then verify the remaining fabric still connects
	// every pair of live hosts.
	for _, id := range halves {
		g.DrainNode(id)
	}
	if err := e.liveHostsConnected(); err != nil {
		for _, id := range halves {
			g.UndrainNode(id)
		}
		return fmt.Errorf("reconfig: draining switch phys %d would partition: %w", phys, err)
	}
	rec := controller.EpochRecord{Op: controller.EpochDrainSwitch, Phys: phys}
	e.propose(rec, func() {
		// Two beacon intervals between derouting the switch and detaching
		// its links let in-flight packets clear the old paths.
		e.Net.Eng.After(2*e.Net.Cfg.BeaconInterval, func() {
			// Outputs strictly before inputs: pinning a switch's own
			// input registers at the sentinel recomputes its aggregate to
			// the sentinel, and a still-live output link would relay that
			// poisoned barrier into the fabric.
			for _, id := range halves {
				for _, lid := range g.Out[id] {
					e.Net.DrainLink(lid)
				}
			}
			for _, id := range halves {
				for _, lid := range g.In[id] {
					e.Net.DrainLink(lid)
				}
			}
			if done != nil {
				done()
			}
		})
	})
	return nil
}

// AddSwitch grows the given pod's spine set by one physical switch. The
// new links are prepared drained, the epoch commits, then the switch's
// input registers are seeded from its neighbors' current outputs and its
// output links admitted (their registers clamp to the downstream
// aggregates), and finally ECMP routing starts using it. done fires after
// activation with the new physical switch index.
func (e *Engine) AddSwitch(pod int, done func(phys int)) error {
	g := e.Net.G
	up, down, links, err := g.AddSpine(pod)
	if err != nil {
		return err
	}
	phys := g.Node(up).Phys
	g.DrainNode(up)
	g.DrainNode(down)
	e.Net.Grow()
	rec := controller.EpochRecord{Op: controller.EpochAddSwitch, Phys: phys}
	e.propose(rec, func() {
		// Inputs before outputs: seeding the switch's ingress registers
		// from live upstream aggregates gives it a current view, so the
		// clamped egress registers stall the neighbors' minima for at
		// most one relay hop.
		for _, lid := range links {
			l := g.Link(lid)
			if l.To == up || l.To == down {
				be, c := e.Net.NodeBarriers(l.From)
				e.Net.AdmitLink(lid, be, c)
			}
		}
		for _, lid := range links {
			l := g.Link(lid)
			if l.From == up || l.From == down {
				e.Net.AdmitLink(lid, 0, 0)
			}
		}
		g.UndrainNode(up)
		g.UndrainNode(down)
		if done != nil {
			done(phys)
		}
	})
	return nil
}

// liveHostsConnected verifies every pair of live (not dead, not drained)
// hosts remains mutually reachable over live routing.
func (e *Engine) liveHostsConnected() error {
	g := e.Net.G
	var live []topology.NodeID
	for _, id := range g.Hosts {
		if !g.NodeDead(id) && !g.NodeDrained(id) {
			live = append(live, id)
		}
	}
	for _, a := range live {
		for _, b := range live {
			if a != b && !g.Reachable(a, b) {
				return fmt.Errorf("%s unreachable from %s", g.Node(b).Name, g.Node(a).Name)
			}
		}
	}
	return nil
}
