// Package starswitch is the one-rack switch of §4.1–4.2 as a substrate-free
// state machine: a barrier register pair per host uplink, the monotone
// minimum over them (eq. 4.1), restamp-on-forward, injected impairment, and
// information-based downlink beacon suppression. Both star fabrics
// (internal/livenet on engine events, internal/udpnet over sockets) drive
// this one Core and only move packets and time around it.
//
// Contract: the caller serialises every call (one goroutine, or one lock)
// and passes the current time; the Core never blocks, starts no goroutine,
// and reads no clock.
//
// The simulator's multi-hop aggregation (internal/netsim) is deliberately
// not built on this: its membership is a function of topology deadness and
// two-plane controller state that a star has no notion of.
package starswitch

import (
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Stats counts what the switch did with data-plane packets and downlink
// beacons. Dropped includes every datagram arriving on a port that was
// never admitted.
type Stats struct {
	Forwarded, Dropped, BeaconsSuppressed uint64
}

// port is one host's link pair: the uplink's ingress registers and the
// highest barrier its downlink has already carried.
type port struct {
	id         int
	regBE      sim.Time
	regC       sim.Time
	txBE       sim.Time
	txC        sim.Time
	drained    bool
	blackholed bool
}

// Core is the switch state. The zero value is not usable; call New.
type Core struct {
	ports []port      // admission order
	index map[int]int // port id -> slot in ports
	outBE sim.Time    // monotone output clamp
	outC  sim.Time
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

func (c *Core) port(id int) *port {
	if i, ok := c.index[id]; ok {
		return &c.ports[i]
	}
	return nil
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
	be, cc := c.Aggregate()
	c.index[id] = len(c.ports)
	c.ports = append(c.ports, port{id: id, regBE: be, regC: cc})
	return true
}

// Drain removes an admitted port for good: it leaves aggregation and beacon
// relays, traffic to and from it is dropped, and it can never be
// re-admitted. A drain is a decision, not a fault — the parked register
// must not freeze the barrier.
func (c *Core) Drain(id int) {
	if p := c.port(id); p != nil {
		p.drained = true
	}
}

// Drained reports whether port id has been drained.
func (c *Core) Drained(id int) bool {
	p := c.port(id)
	return p != nil && p.drained
}

// SetBlackhole installs or clears a grey failure on an admitted port: its
// beacons still advance its registers (so the barrier keeps moving) but
// every data-plane packet to or from it is dropped.
func (c *Core) SetBlackhole(id int, blocked bool) {
	if p := c.port(id); p != nil {
		p.blackholed = blocked
	}
}

// Stats returns the counters.
func (c *Core) Stats() Stats { return c.stats }

// Aggregate returns the relayed barrier pair: the minimum register over
// admitted, non-drained ports, clamped so the output never regresses.
func (c *Core) Aggregate() (be, cc sim.Time) {
	first := true
	var minBE, minC sim.Time
	for i := range c.ports {
		p := &c.ports[i]
		if p.drained {
			continue
		}
		if first || p.regBE < minBE {
			minBE = p.regBE
		}
		if first || p.regC < minC {
			minC = p.regC
		}
		first = false
	}
	if !first {
		if minBE > c.outBE {
			c.outBE = minBE
		}
		if minC > c.outC {
			c.outC = minC
		}
	}
	return c.outBE, c.outC
}

// Ingress handles a packet arriving on uplink from, bound for port dst, at
// time now. It advances the uplink's registers from the packet's barrier
// stamps and reports whether the caller must forward the packet — restamped
// in place with the aggregate — to dst after the extra delay. On false the
// packet was consumed (beacon, commit) or dropped; the caller still owns
// its memory either way.
func (c *Core) Ingress(from, dst int, pkt *netsim.Packet, now sim.Time) (forward bool, delay sim.Time) {
	data := pkt.Kind != netsim.KindBeacon && pkt.Kind != netsim.KindCommit
	p := c.port(from)
	if p == nil {
		c.stats.Dropped++ // outside input: no register may be created for it
		return false, 0
	}
	if p.drained {
		if data {
			c.stats.Dropped++
		}
		return false, 0
	}
	if pkt.BarrierBE > p.regBE {
		p.regBE = pkt.BarrierBE
	}
	if pkt.BarrierC > p.regC {
		p.regC = pkt.BarrierC
	}
	if !data {
		return false, 0
	}
	d := c.port(dst)
	if p.blackholed || d == nil || d.drained || d.blackholed {
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
	d.carried(be, cc)
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
		p := &c.ports[i]
		if p.drained {
			continue
		}
		if p.txBE >= be && p.txC >= cc {
			c.stats.BeaconsSuppressed++
			continue
		}
		p.carried(be, cc)
		emit(p.id, be, cc)
	}
}
