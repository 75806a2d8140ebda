// Package livenet runs the same lib1pipe state machines as the simulator,
// but in real time: hosts hang off a software switch that performs barrier
// aggregation (§4.1) over in-process links, and all protocol state is
// driven by one event-loop goroutine fed by channels and wall-clock
// timers. It exists to demonstrate that internal/core is genuinely
// substrate-independent — `onepipe-live -fabric chan` runs on it with real
// elapsed microseconds.
//
// The fabric is a single-switch star: every host connects to one software
// switch (internal/starswitch, driven from the loop) that keeps a barrier
// register per host link and relays the aggregated minimum, which is
// exactly the one-rack slice of the Clos model (deeper hierarchies compose
// the same aggregation step). This package only moves packets and time.
package livenet

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
)

// Config parameterizes the live fabric.
type Config struct {
	Hosts        int
	ProcsPerHost int
	// BeaconInterval is T_beacon in wall-clock time.
	BeaconInterval time.Duration
	// Seed seeds the impairment RNG; zero draws from the wall clock.
	Seed int64
	// Impair, when non-nil, degrades data-plane packets at the switch with
	// the full composable model (uniform loss, burst loss, jitter, extra
	// delay) — the live-fabric counterpart of netsim.Config.Impair. The
	// in-process links never lose on their own, so the retransmission
	// machinery is exercised by injection, as in udpnet. The fabric has one
	// switch, so one Impairment covers every path.
	Impair *netsim.Impairment
	// Endpoint overrides the lib1pipe configuration.
	Endpoint *core.Config
	// Trace installs a lifecycle tracer (internal/obs) on every host.
	Trace bool
	// DebugAddr, if non-empty, serves /debug/vars, /debug/pprof and the
	// live /debug/onepipe span breakdown on this address.
	DebugAddr string
}

// DefaultConfig returns a small fabric with millisecond-scale timing
// (coarse enough for wall-clock timers to be meaningful).
func DefaultConfig(hosts, procsPerHost int) Config {
	return Config{
		Hosts:          hosts,
		ProcsPerHost:   procsPerHost,
		BeaconInterval: 1 * time.Millisecond,
	}
}

// linkDelay is the emulated one-way host-switch latency.
const linkDelay = 200 * time.Microsecond

// Net is a running live fabric.
type Net struct {
	cfg   Config
	ecfg  core.Config // resolved endpoint config, reused by runtime joins
	loop  chan func()
	done  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	hosts []*core.Host
	procs []*core.Proc
	// sw is the switch: port h is host h's link pair. Touched only on the
	// loop.
	sw *starswitch.Core

	traces []*obs.Trace
	debug  *http.Server

	stopOnce sync.Once
}

// hostWire adapts one host to the loop: Now is wall-clock nanoseconds
// since fabric start (all hosts share one clock — perfectly synchronized,
// the degenerate case of the clock model).
type hostWire struct {
	n    *Net
	host int
}

func (w hostWire) Now() sim.Time { return sim.Time(time.Since(w.n.start)) }

func (w hostWire) After(d sim.Time, fn func()) {
	time.AfterFunc(time.Duration(d), func() { w.n.post(fn) })
}

func (w hostWire) Send(pkt *netsim.Packet) {
	// Host -> switch link with propagation delay.
	n := w.n
	host := w.host
	time.AfterFunc(linkDelay, func() {
		n.post(func() { n.switchReceive(host, pkt) })
	})
}

// New starts the fabric: the loop goroutine, per-host lib1pipe runtimes,
// and the switch beacon ticker.
func New(cfg Config) *Net {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ecfg := core.DefaultConfig()
	if cfg.Endpoint != nil {
		ecfg = *cfg.Endpoint
	}
	ecfg.BeaconInterval = sim.Time(cfg.BeaconInterval)
	ecfg.UseDataBarriers = true
	// Wall-clock timers are coarse: scale protocol timeouts with the link
	// delay.
	ecfg.RTO = 20 * sim.Time(linkDelay)
	ecfg.SendFailTimeout = 100 * sim.Time(linkDelay)

	n := &Net{
		cfg:   cfg,
		ecfg:  ecfg,
		loop:  make(chan func(), 4096),
		done:  make(chan struct{}),
		start: time.Now(),
		sw:    starswitch.New(cfg.Impair, seed),
	}
	n.wg.Add(1)
	go n.run()

	ready := make(chan struct{})
	n.post(func() {
		for h := 0; h < cfg.Hosts; h++ {
			n.addHost()
		}
		close(ready)
	})
	<-ready

	if cfg.DebugAddr != "" {
		if srv, err := obs.ServeDebug(cfg.DebugAddr, n.traceMap); err == nil {
			n.debug = srv
		}
	}

	// Switch beacon ticker: relay the aggregated barrier to every host.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		tick := time.NewTicker(cfg.BeaconInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				n.post(n.relayBeacons)
			case <-n.done:
				return
			}
		}
	}()
	return n
}

// run is the single goroutine that owns all protocol state.
func (n *Net) run() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.loop:
			fn()
		case <-n.done:
			// Drain what is already queued, then exit.
			for {
				select {
				case fn := <-n.loop:
					fn()
				default:
					return
				}
			}
		}
	}
}

func (n *Net) post(fn func()) {
	select {
	case n.loop <- fn:
	case <-n.done:
	}
}

// addHost creates host len(n.hosts) on the loop: a switch port (its uplink
// registers seeded at the current aggregate), the lib1pipe runtime, stuck
// hook and procs.
func (n *Net) addHost() *core.Host {
	hi := len(n.hosts)
	n.sw.Admit(hi)
	host := core.NewHost(hi, hostWire{n: n, host: hi}, n.ecfg)
	if n.cfg.Trace {
		host.Obs = obs.NewTrace()
		n.traces = append(n.traces, host.Obs)
	}
	// All hosts share the wall clock, so the floor force is trivially
	// satisfied; setting it keeps the register promise independent of
	// that reasoning. The stuck hook is the degenerate controller: a
	// scattering stuck toward a drained host resolves as send-failure.
	host.SetFloor(n.Now())
	host.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		n.post(func() {
			if n.sw.Drained(int(dst) / n.cfg.ProcsPerHost) {
				host.ResolveUnreachable(dst, ts)
			}
		})
	}
	n.hosts = append(n.hosts, host)
	host.Start()
	for p := 0; p < n.cfg.ProcsPerHost; p++ {
		id := netsim.ProcID(hi*n.cfg.ProcsPerHost + p)
		n.procs = append(n.procs, host.AddProc(id))
	}
	return host
}

// Join attaches a new host to the running fabric and returns its index.
// Its procs occupy the next ProcsPerHost process IDs.
func (n *Net) Join() int {
	var hi int
	n.Do(func() { hi = len(n.hosts); n.addHost() })
	return hi
}

// Drain gracefully removes a host: sends are refused immediately, the
// send window flushes, then the host leaves aggregation and stops.
// Blocks until the drain completes. Peers' stuck sends toward the
// departed host resolve via send-failure.
func (n *Net) Drain(host int) error {
	errc := make(chan error, 1)
	fin := make(chan struct{})
	n.post(func() {
		if host < 0 || host >= len(n.hosts) {
			errc <- fmt.Errorf("livenet: no such host %d", host)
			close(fin)
			return
		}
		if n.sw.Drained(host) {
			errc <- fmt.Errorf("livenet: host %d already drained", host)
			close(fin)
			return
		}
		h := n.hosts[host]
		errc <- nil
		h.Drain(func() {
			n.sw.Drain(host)
			h.Stop()
			close(fin)
		})
	})
	if err := <-errc; err != nil {
		return err
	}
	select {
	case <-fin:
	case <-n.done:
	}
	return nil
}

// Drained reports whether a host has gracefully left.
func (n *Net) Drained(host int) bool {
	var d bool
	n.Do(func() { d = n.sw.Drained(host) })
	return d
}

// switchReceive hands a packet arriving on a host uplink to the switch and,
// if it says so, forwards the restamped packet down the destination link.
func (n *Net) switchReceive(fromHost int, pkt *netsim.Packet) {
	dstHost := int(pkt.Dst) / n.cfg.ProcsPerHost
	forward, extra := n.sw.Ingress(fromHost, dstHost, pkt, n.Now())
	if !forward {
		netsim.PutPacket(pkt) // consumed by the registers, or dropped
		return
	}
	time.AfterFunc(linkDelay+time.Duration(extra), func() {
		n.post(func() { n.hosts[dstHost].HandlePacket(pkt) })
	})
}

// relayBeacons pushes the aggregated barrier down every host link that has
// not already carried it (beacon piggybacking, §4.2).
func (n *Net) relayBeacons() {
	n.sw.Relay(func(h int, be, c sim.Time) {
		pkt := netsim.GetPacket()
		pkt.Kind, pkt.BarrierBE, pkt.BarrierC, pkt.Size = netsim.KindBeacon, be, c, netsim.BeaconBytes
		time.AfterFunc(linkDelay, func() {
			n.post(func() { n.hosts[h].HandlePacket(pkt) })
		})
	})
}

// SwitchStats returns the switch's data-plane and beacon-suppression
// counters.
func (n *Net) SwitchStats() starswitch.Stats {
	var st starswitch.Stats
	n.Do(func() { st = n.sw.Stats() })
	return st
}

// NumProcs returns the process count.
func (n *Net) NumProcs() int { return len(n.procs) }

// Now returns the fabric clock: wall-clock nanoseconds since start.
func (n *Net) Now() sim.Time { return sim.Time(time.Since(n.start)) }

// Traces returns the per-host lifecycle tracers (empty unless Config.Trace);
// feed them to obs.Merge for the fabric-wide breakdown.
func (n *Net) Traces() []*obs.Trace { return n.traces }

// DebugAddr returns the bound debug-server address, or "" when disabled.
func (n *Net) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.Addr
}

func (n *Net) traceMap() map[string]*obs.Trace {
	out := make(map[string]*obs.Trace)
	for i, t := range n.traces {
		out[fmt.Sprintf("host%d", i)] = t
	}
	return out
}

// Do runs fn on the fabric's event loop and waits for it — the only safe
// way to touch endpoint state from outside.
func (n *Net) Do(fn func()) {
	done := make(chan struct{})
	n.post(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-n.done:
	}
}

// Proc returns process p's endpoint. Interact with it via Do, or from
// delivery callbacks (which already run on the loop).
func (n *Net) Proc(p int) *core.Proc { return n.procs[p] }

// SendOpts issues a scattering with explicit options on the loop. Sends
// racing Stop return an error wrapping core.ErrClosed; a send that loses
// the race after its closure was already queued may conservatively report
// ErrClosed even though the (stopped) endpoint saw it.
func (n *Net) SendOpts(p int, msgs []core.Message, o core.SendOptions) error {
	res := make(chan error, 1)
	n.post(func() { res <- n.procs[p].SendOpts(msgs, o) })
	select {
	case err := <-res:
		return err
	case <-n.done:
		select {
		case err := <-res:
			return err
		default:
			return fmt.Errorf("livenet: fabric stopped: %w", core.ErrClosed)
		}
	}
}

// Stop shuts the fabric down.
func (n *Net) Stop() {
	n.stopOnce.Do(func() {
		if n.debug != nil {
			n.debug.Close()
		}
		n.Do(func() {
			for _, h := range n.hosts {
				h.Stop()
			}
		})
		close(n.done)
	})
	n.wg.Wait()
}
