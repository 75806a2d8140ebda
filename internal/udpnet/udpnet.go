// Package udpnet deploys 1Pipe over real UDP sockets: every host is a UDP
// endpoint running the unmodified lib1pipe state machines
// (internal/core), and a software switch — another UDP socket — performs
// the §4.1 barrier aggregation and forwards packets between hosts, exactly
// like the host-delegate incarnation of §6.2.3. Packets travel in the
// 48-bit-timestamp wire format of internal/wire, so PAWS wraparound
// handling is exercised on a real network path.
//
// All sockets bind to the loopback interface and are launched by one
// Start call. Nothing in the protocol requires co-residence — hosts and
// switch share only the wire format and a clock epoch — so splitting the
// endpoints across OS processes (disciplined by the system clock) is a
// mechanical extension; the in-process launcher keeps the tests hermetic.
//
// Hosts and switch reach sockets, clock and timers only through a small
// datagram transport (transport.go). Start runs over UDP; the package's
// tests also run the same code over an in-memory twin on a sim.Engine
// (memnet.go), where a run is deterministic and replays from its seed.
package udpnet

import (
	"fmt"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/wire"
)

// Config parameterizes the UDP fabric.
type Config struct {
	Hosts          int
	ProcsPerHost   int
	BeaconInterval time.Duration
	// Seed seeds the switch's impairment RNG so lossy runs are
	// reproducible; zero draws from the wall clock.
	Seed int64
	// Impair, when non-nil, degrades data-plane packets at the switch with
	// the composable model (uniform loss, burst loss, jitter, extra delay).
	// Loopback never loses, so the reliability machinery is exercised by
	// injection. One switch serves the fabric, so one Impairment covers
	// every path.
	Impair *netsim.Impairment
	// Endpoint overrides lib1pipe configuration.
	Endpoint *core.Config
	// RegisterTimeout bounds how long Start and Join wait for each host to
	// register at the switch; zero means 5s.
	RegisterTimeout time.Duration
	// Trace installs a lifecycle tracer (internal/obs) on every host.
	Trace bool
	// DebugAddr, if non-empty, serves /debug/vars, /debug/pprof and the
	// live /debug/onepipe span breakdown on this address (use "127.0.0.1:0"
	// for an ephemeral port).
	DebugAddr string
}

// DefaultConfig returns a loopback fabric with millisecond beacons.
func DefaultConfig(hosts, procsPerHost int) Config {
	return Config{Hosts: hosts, ProcsPerHost: procsPerHost, BeaconInterval: time.Millisecond}
}

// registerPayload marks a control datagram announcing a host's address.
var registerPayload = []byte("1PIPE-REGISTER")

// Cluster is a running UDP deployment.
type Cluster struct {
	Switch *Switch
	cfg    Config
	tr     transport
	debug  *http.Server

	// mu guards hosts: Join appends while senders resolve their host.
	mu    sync.Mutex
	hosts []*HostNode
}

// Start binds the switch and every host on loopback and registers them.
func Start(cfg Config) (*Cluster, error) { return start(cfg, newUDPTransport()) }

// start launches the fabric over tr, joining the hosts one at a time.
func start(cfg Config, tr transport) (*Cluster, error) {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 5 * time.Second
	}
	sw, err := newSwitch(cfg, tr)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Switch: sw, cfg: cfg, tr: tr}
	for h := 0; h < cfg.Hosts; h++ {
		if _, err := c.Join(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.DebugAddr != "" {
		srv, err := obs.ServeDebug(cfg.DebugAddr, c.traceMap)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.debug = srv
	}
	return c, nil
}

// DebugAddr returns the bound address of the debug HTTP server, or "" when
// Config.DebugAddr was unset.
func (c *Cluster) DebugAddr() string {
	if c.debug == nil {
		return ""
	}
	return c.debug.Addr
}

// Traces returns the per-host lifecycle tracers (nil entries when
// Config.Trace was off); feed them to obs.Merge for the cluster view.
func (c *Cluster) Traces() []*obs.Trace {
	hosts := c.snapshot()
	out := make([]*obs.Trace, len(hosts))
	for i, h := range hosts {
		out[i] = h.Trace()
	}
	return out
}

func (c *Cluster) traceMap() map[string]*obs.Trace {
	out := make(map[string]*obs.Trace)
	for i, h := range c.snapshot() {
		if t := h.Trace(); t != nil {
			out[fmt.Sprintf("host%d", i)] = t
		}
	}
	return out
}

// Join attaches a new host to the running fabric and returns its index.
// The switch seeds the new uplink's registers at its current aggregate on
// registration, and the host's timestamp floor is forced to the shared
// clock first, so the join can never regress the barrier. The switch
// accepts a hello for this host id only, and Join blocks until that id is
// pinned, or fails after RegisterTimeout. Sends may run concurrently with
// a Join; Joins may not run concurrently with each other.
func (c *Cluster) Join() (int, error) {
	hi := len(c.snapshot())
	c.Switch.expect(hi)
	hn, err := newHostNode(hi, c.cfg, c.tr, c.Switch, c.Now())
	if err != nil {
		c.Switch.expect(-1)
		return -1, err
	}
	if !c.tr.wait(c.cfg.RegisterTimeout, func() bool { return c.Switch.pinned(hi) }) {
		c.Switch.expect(-1)
		hn.close()
		return -1, fmt.Errorf("udpnet: host %d never registered", hi)
	}
	c.mu.Lock()
	c.hosts = append(c.hosts, hn)
	c.mu.Unlock()
	return hi, nil
}

// Drain gracefully removes a host: sends are refused immediately, the
// send window flushes, then the switch detaches the uplink from
// aggregation and the endpoint closes. Blocks until complete. Peers'
// stuck sends toward the departed host resolve via send-failure.
func (c *Cluster) Drain(host int) error {
	hosts := c.snapshot()
	if host < 0 || host >= len(hosts) {
		return fmt.Errorf("udpnet: no such host %d", host)
	}
	if c.Switch.Drained(host) {
		return fmt.Errorf("udpnet: host %d already drained", host)
	}
	hn := hosts[host]
	var flushed atomic.Bool
	hn.mu.Lock()
	if hn.closed {
		hn.mu.Unlock()
		return fmt.Errorf("udpnet: host %d closed: %w", host, core.ErrClosed)
	}
	hn.core.Drain(func() { flushed.Store(true) })
	hn.mu.Unlock()
	c.tr.wait(0, flushed.Load)
	c.Switch.SetDrained(host)
	hn.close()
	return nil
}

// snapshot returns the hosts joined so far.
func (c *Cluster) snapshot() []*HostNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hosts
}

// Proc returns a process handle.
func (c *Cluster) Proc(p int) *ProcHandle {
	return &ProcHandle{host: c.snapshot()[p/c.cfg.ProcsPerHost], id: netsim.ProcID(p)}
}

// NumProcs returns the total process count.
func (c *Cluster) NumProcs() int { return len(c.snapshot()) * c.cfg.ProcsPerHost }

// Now returns the fabric clock: nanoseconds since the shared epoch.
func (c *Cluster) Now() sim.Time { return c.tr.now() }

// Close shuts the fabric down.
func (c *Cluster) Close() {
	if c.debug != nil {
		c.debug.Close()
		c.debug = nil
	}
	for _, h := range c.snapshot() {
		h.close()
	}
	if c.Switch != nil {
		c.Switch.close()
	}
}

// ProcHandle exposes one process's API with the host's lock held.
type ProcHandle struct {
	host *HostNode
	id   netsim.ProcID
}

// OnDeliver installs the delivery callback (invoked with the host lock
// held; keep it short or hand off).
func (p *ProcHandle) OnDeliver(fn func(core.Delivery)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnDeliver = fn
}

// OnDeliverBatch installs the batched delivery callback (takes precedence
// over OnDeliver; the slice is reused after the callback returns).
func (p *ProcHandle) OnDeliverBatch(fn func([]core.Delivery)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnDeliverBatch = fn
}

// OnSendFail installs the send-failure callback.
func (p *ProcHandle) OnSendFail(fn func(core.SendFailure)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnSendFail = fn
}

// OnProcFail installs the process-failure callback.
func (p *ProcHandle) OnProcFail(fn func(netsim.ProcID, sim.Time)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnProcFail = fn
}

// SendOpts issues a scattering; message Data must be []byte (it crosses a
// real socket).
func (p *ProcHandle) SendOpts(msgs []core.Message, o core.SendOptions) error {
	return p.host.send(p.id, msgs, o)
}

// HostNode is one host endpoint.
type HostNode struct {
	id     int
	tr     transport
	swAddr netip.AddrPort

	mu     sync.Mutex
	ep     endpoint
	core   *core.Host
	procs  map[netsim.ProcID]*core.Proc
	closed bool
}

// hostWire adapts the host's endpoint to core.Wire on the transport's clock
// and timers.
type hostWire struct{ h *HostNode }

func (w hostWire) Now() sim.Time { return w.h.tr.now() }

func (w hostWire) After(d sim.Time, fn func()) {
	h := w.h
	h.tr.after(d, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.closed {
			fn()
		}
	})
}

// sendBufPool recycles encode buffers across Send calls; each is large
// enough for a max-size datagram so AppendEncode never grows it.
var sendBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

func (w hostWire) Send(pkt *netsim.Packet) {
	var payload []byte
	if b, ok := pkt.Payload.([]byte); ok && pkt.EndOfMsg {
		payload = b
	}
	bp := sendBufPool.Get().(*[]byte)
	buf := wire.AppendEncode((*bp)[:0], pkt, payload)
	// Fire-and-forget datagram to the switch.
	w.h.ep.send(buf, w.h.swAddr)
	*bp = buf[:0]
	sendBufPool.Put(bp)
	netsim.PutPacket(pkt) // the wire owns the packet once sent
}

// newHostNode binds one host endpoint and announces it to the switch; a
// nonzero floor forces its timestamping state above it before the first
// emission (live join).
func newHostNode(id int, cfg Config, tr transport, sw *Switch, floor sim.Time) (*HostNode, error) {
	h := &HostNode{id: id, tr: tr, swAddr: sw.Addr(),
		procs: make(map[netsim.ProcID]*core.Proc)}
	// A datagram's receive waits for the lock until the host is set up.
	h.mu.Lock()
	defer h.mu.Unlock()
	ep, err := tr.listen(h.receive)
	if err != nil {
		return nil, err
	}
	h.ep = ep
	ecfg := core.DefaultConfig()
	if cfg.Endpoint != nil {
		ecfg = *cfg.Endpoint
	}
	ecfg.BeaconInterval = sim.Time(cfg.BeaconInterval)
	ecfg.RTO = sim.Time(20 * cfg.BeaconInterval)
	ecfg.SendFailTimeout = sim.Time(100 * cfg.BeaconInterval)
	h.core = core.NewHost(id, hostWire{h: h}, ecfg)
	// The degenerate controller: a scattering stuck toward a drained
	// (departed) host resolves as a send-failure at its sender instead of
	// parking the commit floor. OnStuck fires with the lock held: hand off.
	h.core.OnStuck = func(_, dst netsim.ProcID, ts sim.Time) {
		tr.after(0, func() {
			if !sw.Drained(int(dst) / cfg.ProcsPerHost) {
				return
			}
			h.mu.Lock()
			if !h.closed {
				h.core.ResolveUnreachable(dst, ts)
			}
			h.mu.Unlock()
		})
	}
	if floor > 0 {
		h.core.SetFloor(floor)
	}
	if cfg.Trace {
		h.core.Obs = obs.NewTrace()
	}
	for p := 0; p < cfg.ProcsPerHost; p++ {
		pid := netsim.ProcID(id*cfg.ProcsPerHost + p)
		h.procs[pid] = h.core.AddProc(pid)
	}
	h.core.Start()
	hello := wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl,
		Src: netsim.ProcID(id * cfg.ProcsPerHost)}, registerPayload)
	ep.send(hello, h.swAddr)
	return h, nil
}

// receive hands one datagram to the endpoint.
func (h *HostNode) receive(_ netip.AddrPort, b []byte) {
	pkt := netsim.GetPacket()
	payload, err := wire.DecodeInto(pkt, b, h.tr.now())
	if err == nil && len(payload) > 0 {
		err = h.attachPayload(pkt, payload)
	}
	if err != nil {
		netsim.PutPacket(pkt)
		return
	}
	h.mu.Lock()
	if !h.closed {
		h.core.HandlePacket(pkt) // consumes pkt
	} else {
		netsim.PutPacket(pkt)
	}
	h.mu.Unlock()
}

// attachPayload turns the payload bytes of a decoded packet into the value
// core expects in pkt.Payload: a pooled ACK batch for a coalesced ACK, a
// pooled frame for a multi-message frame, the bytes themselves otherwise.
func (h *HostNode) attachPayload(pkt *netsim.Packet, payload []byte) error {
	if pkt.Kind == netsim.KindAck {
		b, err := wire.ParseAckBatch(payload) // copies the entries out
		if err != nil {
			return err
		}
		pkt.Payload = b
		return nil
	}
	// The payload aliases the datagram; copy before the next one.
	cp := append([]byte(nil), payload...)
	if !pkt.Frame {
		pkt.Payload = cp
		return nil
	}
	f, err := wire.ParseFramePayload(cp, h.tr.now())
	if err != nil {
		return err
	}
	pkt.Payload = f // entry Data aliases cp, which outlives the frame
	return nil
}

// Trace returns the host's lifecycle tracer (nil unless Config.Trace).
func (h *HostNode) Trace() *obs.Trace {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.Obs
}

func (h *HostNode) send(src netsim.ProcID, msgs []core.Message, o core.SendOptions) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("udpnet: host %d closed: %w", h.id, core.ErrClosed)
	}
	p := h.procs[src]
	if p == nil {
		return fmt.Errorf("udpnet: proc %d not on host %d", src, h.id)
	}
	return p.SendOpts(msgs, o)
}

func (h *HostNode) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.core.Stop()
	}
	h.mu.Unlock()
	h.ep.close()
}
