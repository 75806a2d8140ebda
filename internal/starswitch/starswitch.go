// Package starswitch is the one-rack switch of §4.1–4.2 as a substrate-free
// state machine: a barrier register pair per host uplink, the monotone
// minimum over them (eq. 4.1), restamp-on-forward, injected impairment, and
// information-based downlink beacon suppression. The star fabric
// (internal/udpnet, over UDP sockets or its in-memory twin on a sim.Engine)
// drives this Core and only moves datagrams and time around it.
//
// Contract: the caller serialises every call (one goroutine, or one lock)
// and passes the current time; the Core never blocks, starts no goroutine,
// and reads no clock.
//
// The registers, the minimum and the clamp are a barrier.Set, the same
// register file the simulator's switches (internal/netsim) aggregate with;
// here a port is a member of both planes from Admit until Drain.
package starswitch

import (
	"onepipe/internal/barrier"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Stats counts what the switch did with data-plane packets and downlink
// beacons. Dropped includes every datagram arriving on a port that was
// never admitted.
type Stats struct {
	Forwarded, Dropped, BeaconsSuppressed uint64
}

// port is one host's link pair: the highest barrier its downlink has
// already carried and the grey-failure mark. The uplink's ingress registers
// are the input with the port's slot in Core.regs.
type port struct {
	id         int
	txBE       sim.Time
	txC        sim.Time
	blackholed bool
}

// Core is the switch state. The zero value is not usable; call New.
type Core struct {
	ports []port      // admission order
	index map[int]int // port id -> slot in ports and regs
	// regs holds the uplink registers; a port is a member of both planes
	// until it is drained.
	regs  barrier.Set
	imp   *netsim.ImpairState // nil when unimpaired
	stats Stats
}

// New builds a switch with no ports. imp (nil or zero: none) is applied to
// every forwarded data-plane packet from an RNG seeded with seed.
func New(imp *netsim.Impairment, seed int64) *Core {
	return &Core{
		index: make(map[int]int),
		imp:   netsim.NewImpairState(imp, seed, 0),
	}
}

// slot returns port id's slot in ports and regs: admitted, and live unless
// it has been drained.
func (c *Core) slot(id int) (i int, admitted, live bool) {
	i, admitted = c.index[id]
	return i, admitted, admitted && c.regs.Member(i, barrier.BE)
}

// Admit attaches port id and reports whether it was new. The uplink's
// registers are seeded, per plane, at the current aggregate: a joining host
// stamps everything it emits at or above the fabric clock, so admitting it
// can hold the minimum briefly but never regress it. Re-admitting a known
// or drained port changes nothing.
func (c *Core) Admit(id int) bool {
	if _, known := c.index[id]; known {
		return false
	}
	i := c.regs.Add(c.Aggregate())
	c.regs.SetMember(i, barrier.BE, true)
	c.regs.SetMember(i, barrier.C, true)
	c.index[id] = i
	c.ports = append(c.ports, port{id: id})
	return true
}

// Drain removes an admitted port for good: it leaves aggregation and beacon
// relays, traffic to and from it is dropped, and it can never be
// re-admitted. A drain is a decision, not a fault — the parked register
// must not freeze the barrier.
func (c *Core) Drain(id int) {
	if i, ok := c.index[id]; ok {
		c.regs.SetMember(i, barrier.BE, false)
		c.regs.SetMember(i, barrier.C, false)
	}
}

// Drained reports whether port id has been drained.
func (c *Core) Drained(id int) bool {
	_, admitted, live := c.slot(id)
	return admitted && !live
}

// SetBlackhole installs or clears a grey failure on an admitted port: its
// beacons still advance its registers (so the barrier keeps moving) but
// every data-plane packet to or from it is dropped.
func (c *Core) SetBlackhole(id int, blocked bool) {
	if i, ok := c.index[id]; ok {
		c.ports[i].blackholed = blocked
	}
}

// Stats returns the counters.
func (c *Core) Stats() Stats { return c.stats }

// Aggregate returns the relayed barrier pair: the minimum register over
// admitted, non-drained ports, clamped so the output never regresses.
func (c *Core) Aggregate() (be, cc sim.Time) { return c.regs.Out() }

// Ingress handles a packet arriving on uplink from, bound for port dst, at
// time now. It advances the uplink's registers from the packet's barrier
// stamps and reports whether the caller must forward the packet — restamped
// in place with the aggregate — to dst after the extra delay. On false the
// packet was consumed (beacon, commit) or dropped; the caller still owns
// its memory either way.
func (c *Core) Ingress(from, dst int, pkt *netsim.Packet, now sim.Time) (forward bool, delay sim.Time) {
	data := pkt.Kind != netsim.KindBeacon && pkt.Kind != netsim.KindCommit
	i, admitted, live := c.slot(from)
	if !admitted {
		c.stats.Dropped++ // outside input: no register may be created for it
		return false, 0
	}
	if !live {
		if data {
			c.stats.Dropped++
		}
		return false, 0
	}
	c.regs.Raise(i, pkt.BarrierBE, pkt.BarrierC)
	if !data {
		return false, 0
	}
	di, _, dlive := c.slot(dst)
	if c.ports[i].blackholed || !dlive || c.ports[di].blackholed {
		c.stats.Dropped++
		return false, 0
	}
	if c.imp != nil {
		if c.imp.Drop(now) {
			c.stats.Dropped++ // registers already advanced; only the packet is gone
			return false, 0
		}
		delay = c.imp.Delay(now)
	}
	be, cc := c.Aggregate()
	pkt.BarrierBE, pkt.BarrierC = be, cc
	c.ports[di].carried(be, cc)
	c.stats.Forwarded++
	return true, delay
}

func (p *port) carried(be, cc sim.Time) {
	if be > p.txBE {
		p.txBE = be
	}
	if cc > p.txC {
		p.txC = cc
	}
}

// Relay is the beacon tick: emit is called, in admission order, for every
// live port whose downlink has not yet carried the current aggregate. A
// downlink that has (forwarded data was restamped with it) needs no
// standalone beacon and is counted in BeaconsSuppressed.
func (c *Core) Relay(emit func(port int, be, cc sim.Time)) {
	be, cc := c.Aggregate()
	for i := range c.ports {
		if !c.regs.Member(i, barrier.BE) {
			continue
		}
		p := &c.ports[i]
		if p.txBE >= be && p.txC >= cc {
			c.stats.BeaconsSuppressed++
			continue
		}
		p.carried(be, cc)
		emit(p.id, be, cc)
	}
}
