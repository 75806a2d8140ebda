// Package livenet runs the same lib1pipe state machines as the simulator on
// the one-rack switch of §4.1–4.2: hosts hang off a software switch
// (internal/starswitch) that keeps a barrier register per host link and
// relays the aggregated minimum. Links, switch and beacon relay are events
// of one sim.Engine the Net owns, so nothing moves unless the caller
// advances it (RunFor): a run is deterministic, socket-free and replayable
// from its seed. internal/udpnet drives the same switch core in real time
// over sockets.
//
// The star is exactly the one-rack slice of the Clos model (deeper
// hierarchies compose the same aggregation step). Unlike internal/netsim it
// has no topology, link rates or queues: a link is a fixed delay plus what
// the switch's impairment adds, and stays FIFO as §4.1 assumes — jitter
// delays a packet but never lets a later one (a beacon with a higher
// barrier) overtake it, so an impairment's ReorderRate only delays. Every
// host reads the engine clock — perfect synchronization, the degenerate
// case of the clock model — and runs one process, whose ID equals its host
// index.
package livenet

import (
	"fmt"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
)

// Config parameterizes the star.
type Config struct {
	Hosts int
	// Seed seeds the engine and the switch's impairment RNG; equal configs
	// driven alike replay equal runs.
	Seed int64
	// Impair, when non-nil, degrades data-plane packets at the switch with
	// the full composable model (uniform loss, burst loss, jitter, extra
	// delay). The links never lose on their own, so the retransmission
	// machinery is exercised by injection, as in udpnet. The fabric has one
	// switch, so one Impairment covers every path.
	Impair *netsim.Impairment
}

// linkDelay is the one-way host-switch latency: the simulator's host-link
// propagation plus NIC and stack processing.
const linkDelay = 500 * sim.Nanosecond

// Net is a star fabric on its own engine.
type Net struct {
	eng   *sim.Engine
	sw    *starswitch.Core // port h is host h's link pair
	hosts []*core.Host
	procs []*core.Proc
	// down[h] is when the last packet sent down host h's link arrives.
	down []sim.Time
	// pool holds the star's free packets: the switch and the hosts take
	// and release them on the engine's goroutine.
	pool netsim.Pool
}

// hostWire attaches one host to the star. Every host reads the engine
// clock, core's timers are the engine's timers and its packets the star's.
type hostWire struct {
	n    *Net
	host int
}

func (w hostWire) Now() sim.Time               { return w.n.eng.Now() }
func (w hostWire) After(d sim.Time, fn func()) { w.n.eng.After(d, fn) }
func (w hostWire) TimerEngine() *sim.Engine    { return w.n.eng }
func (w hostWire) PacketPool() *netsim.Pool    { return &w.n.pool }

// Send puts pkt on the host's uplink; it reaches the switch one link delay
// later.
func (w hostWire) Send(pkt *netsim.Packet) {
	n, from := w.n, w.host
	n.eng.After(linkDelay, func() { n.switchReceive(from, pkt) })
}

// New builds the star with cfg.Hosts hosts at time zero and starts the
// switch's beacon relay at the hosts' beacon interval.
func New(cfg Config) *Net {
	n := &Net{
		eng: sim.NewEngine(cfg.Seed),
		sw:  starswitch.New(cfg.Impair, cfg.Seed),
	}
	for h := 0; h < cfg.Hosts; h++ {
		n.Join()
	}
	sim.NewTicker(n.eng, core.DefaultConfig().BeaconInterval, 0, n.relayBeacons)
	return n
}

// Join attaches a new host — a switch port whose uplink registers are
// seeded at the current aggregate, the lib1pipe runtime and its process —
// and returns its index.
func (n *Net) Join() int {
	hi := len(n.hosts)
	n.sw.Admit(hi)
	host := core.NewHost(hi, hostWire{n: n, host: hi}, core.DefaultConfig())
	// All hosts share the engine clock, so the floor force is trivially
	// satisfied; setting it keeps the register promise independent of that
	// reasoning. The stuck hook is the degenerate controller: a scattering
	// stuck toward a drained host resolves as send-failure. It fires inside
	// the endpoint, so the resolution runs as its own event.
	host.SetFloor(n.eng.Now())
	host.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		n.eng.After(0, func() {
			if n.sw.Drained(int(dst)) {
				host.ResolveUnreachable(dst, ts)
			}
		})
	}
	n.hosts = append(n.hosts, host)
	n.down = append(n.down, 0)
	host.Start()
	n.procs = append(n.procs, host.AddProc(netsim.ProcID(hi)))
	return hi
}

// Drain starts a graceful leave: the host refuses sends at once, and once
// its send window has flushed — as the engine runs — it leaves aggregation,
// stops and calls done (if non-nil). Peers' stuck sends toward it then
// resolve via send-failure.
func (n *Net) Drain(host int, done func()) error {
	if host < 0 || host >= len(n.hosts) {
		return fmt.Errorf("livenet: no such host %d", host)
	}
	h := n.hosts[host]
	if h.Draining() {
		return fmt.Errorf("livenet: host %d already draining", host)
	}
	h.Drain(func() {
		n.sw.Drain(host)
		h.Stop()
		if done != nil {
			done()
		}
	})
	return nil
}

// switchReceive hands a packet arriving on a host uplink to the switch and,
// if it says so, forwards the restamped packet down the destination link.
func (n *Net) switchReceive(fromHost int, pkt *netsim.Packet) {
	dst := int(pkt.Dst)
	forward, extra := n.sw.Ingress(fromHost, dst, pkt, n.eng.Now())
	if !forward {
		n.pool.Put(pkt) // consumed by the registers, or dropped
		return
	}
	n.downlink(dst, pkt, extra)
}

// downlink sends pkt down host h's link, arriving a link delay plus extra
// from now but never before the link's previous packet.
func (n *Net) downlink(h int, pkt *netsim.Packet, extra sim.Time) {
	at := n.eng.Now() + linkDelay + extra
	if at < n.down[h] {
		at = n.down[h]
	}
	n.down[h] = at
	n.eng.At2(at, arrive, n.hosts[h], pkt)
}

// arrive is a downlink arrival: host a receives packet b.
func arrive(a, b any) { a.(*core.Host).HandlePacket(b.(*netsim.Packet)) }

// relayBeacons pushes the aggregated barrier down every host link that has
// not already carried it (beacon piggybacking, §4.2).
func (n *Net) relayBeacons() {
	n.sw.Relay(func(h int, be, c sim.Time) {
		pkt := n.pool.Get()
		pkt.Kind, pkt.BarrierBE, pkt.BarrierC, pkt.Size = netsim.KindBeacon, be, c, netsim.BeaconBytes
		n.downlink(h, pkt, 0)
	})
}

// RunFor advances the fabric by d of virtual time.
func (n *Net) RunFor(d sim.Time) { n.eng.RunFor(d) }

// SwitchStats returns the switch's data-plane and beacon-suppression
// counters.
func (n *Net) SwitchStats() starswitch.Stats { return n.sw.Stats() }

// NumProcs returns the process count.
func (n *Net) NumProcs() int { return len(n.procs) }

// Proc returns process p's endpoint.
func (n *Net) Proc(p int) *core.Proc { return n.procs[p] }
