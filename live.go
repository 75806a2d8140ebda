package onepipe

import (
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/livenet"
	"onepipe/internal/udpnet"
)

// Live is a real-time 1Pipe fabric: the same protocol state machines as
// the simulated Cluster, but running on wall-clock time — either over
// in-process channels or over real UDP sockets on loopback. Use it to
// embed 1Pipe semantics in an actual program rather than an experiment.
// It satisfies Fabric, so code written against Process handles runs
// unchanged on the simulator and both live substrates.
type Live struct {
	np    int
	make  func(p int) procBackend
	stop  func()
	join  func() (int, error)
	drain func(host int) error
	nproc func() int

	mu      sync.Mutex
	handles []*Process
	once    sync.Once
}

// LiveConfig sizes a real-time fabric.
type LiveConfig struct {
	Hosts        int
	ProcsPerHost int
	// BeaconInterval is T_beacon in wall-clock time (default 1 ms —
	// coarse enough for OS timers).
	BeaconInterval time.Duration
	// Impair degrades data-plane packets at the software switch with the
	// composable model (loss, burst loss, jitter, extra delay); both live
	// fabrics honor it. &Impairment{Loss: rate} is plain injected loss.
	Impair *Impairment
	// Seed makes injected loss reproducible; zero draws from the wall
	// clock.
	Seed int64
	// BatchWindow overrides the send-side frame-coalescing window
	// (default 1 us).
	BatchWindow time.Duration
	// DisableBatching turns send-side frame coalescing off entirely.
	DisableBatching bool
}

// endpointOverride translates the LiveConfig batching knobs into a
// lib1pipe endpoint override, or nil when the defaults stand.
func (cfg LiveConfig) endpointOverride() *core.Config {
	if cfg.BatchWindow <= 0 && !cfg.DisableBatching {
		return nil
	}
	e := core.DefaultConfig()
	if cfg.BatchWindow > 0 {
		e.BatchWindow = Timestamp(cfg.BatchWindow)
	}
	e.DisableBatching = cfg.DisableBatching
	return &e
}

// liveBackend wires a Process handle to the in-process fabric: callback
// registration hops onto the event loop, sends return ErrClosed-wrapped
// errors when racing Close.
type liveBackend struct {
	n *livenet.Net
	p int
}

func (b liveBackend) id() ProcID { return ProcID(b.p) }
func (b liveBackend) send(msgs []Message, o core.SendOptions) error {
	return b.n.SendOpts(b.p, msgs, o)
}
func (b liveBackend) setOnDeliver(fn func(Delivery)) {
	b.n.Do(func() { b.n.Proc(b.p).OnDeliver = fn })
}
func (b liveBackend) setOnDeliverBatch(fn func([]Delivery)) {
	b.n.Do(func() { b.n.Proc(b.p).OnDeliverBatch = fn })
}
func (b liveBackend) setOnSendFail(fn func(SendFailure)) {
	b.n.Do(func() { b.n.Proc(b.p).OnSendFail = fn })
}
func (b liveBackend) setOnProcFail(fn func(ProcID, Timestamp)) {
	b.n.Do(func() { b.n.Proc(b.p).OnProcFail = fn })
}
func (b liveBackend) now() Timestamp { return b.n.Now() }

// NewLiveCluster starts an in-process real-time fabric (goroutines and
// channels). Stop it with Close.
func NewLiveCluster(cfg LiveConfig) *Live {
	lcfg := livenet.DefaultConfig(cfg.Hosts, cfg.ProcsPerHost)
	if cfg.BeaconInterval > 0 {
		lcfg.BeaconInterval = cfg.BeaconInterval
	}
	lcfg.Seed = cfg.Seed
	lcfg.Impair = cfg.Impair
	lcfg.Endpoint = cfg.endpointOverride()
	n := livenet.New(lcfg)
	return &Live{
		np:    n.NumProcs(),
		make:  func(p int) procBackend { return liveBackend{n: n, p: p} },
		stop:  n.Stop,
		join:  func() (int, error) { return n.Join(), nil },
		drain: n.Drain,
		nproc: n.NumProcs,
	}
}

// udpBackend wires a Process handle to the UDP fabric's ProcHandle.
type udpBackend struct {
	c *udpnet.Cluster
	p int
}

func (b udpBackend) id() ProcID { return ProcID(b.p) }
func (b udpBackend) send(msgs []Message, o core.SendOptions) error {
	return b.c.Proc(b.p).SendOpts(msgs, o)
}
func (b udpBackend) setOnDeliver(fn func(Delivery))        { b.c.Proc(b.p).OnDeliver(fn) }
func (b udpBackend) setOnDeliverBatch(fn func([]Delivery)) { b.c.Proc(b.p).OnDeliverBatch(fn) }
func (b udpBackend) setOnSendFail(fn func(SendFailure))    { b.c.Proc(b.p).OnSendFail(fn) }
func (b udpBackend) setOnProcFail(fn func(ProcID, Timestamp)) {
	b.c.Proc(b.p).OnProcFail(fn)
}
func (b udpBackend) now() Timestamp { return b.c.Now() }

// NewUDPCluster starts a fabric over real UDP sockets on loopback: one
// socket per host plus a software switch performing barrier aggregation in
// the 48-bit wire format. Message Data must be []byte (it crosses real
// sockets). Stop it with Close.
func NewUDPCluster(cfg LiveConfig) (*Live, error) {
	ucfg := udpnet.DefaultConfig(cfg.Hosts, cfg.ProcsPerHost)
	if cfg.BeaconInterval > 0 {
		ucfg.BeaconInterval = cfg.BeaconInterval
	}
	ucfg.Seed = cfg.Seed
	ucfg.Impair = cfg.Impair
	ucfg.Endpoint = cfg.endpointOverride()
	c, err := udpnet.Start(ucfg)
	if err != nil {
		return nil, err
	}
	return &Live{
		np:    c.NumProcs(),
		make:  func(p int) procBackend { return udpBackend{c: c, p: p} },
		stop:  c.Close,
		join:  c.Join,
		drain: c.Drain,
		nproc: c.NumProcs,
	}, nil
}

// NumProcesses returns the process count.
func (l *Live) NumProcesses() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.np
}

// Join grows the running fabric by one host and returns its index. On the
// in-process fabric the host is live on return; on the UDP fabric it has
// registered with the software switch and its uplink registers are seeded
// at the current aggregate, so the global barrier never regresses. The new
// host's processes appear at the tail of the process space.
func (l *Live) Join() (int, error) {
	hi, err := l.join()
	if err != nil {
		return -1, err
	}
	l.mu.Lock()
	l.np = l.nproc()
	l.mu.Unlock()
	return hi, nil
}

// Drain gracefully removes a host: new sends on it fail with ErrClosed,
// its send window flushes, then it leaves barrier aggregation and beacon
// relays for good. Blocks until the host has fully detached. No failure
// callbacks fire.
func (l *Live) Drain(host int) error { return l.drain(host) }

// Process returns the endpoint handle of process p. Handles are cached:
// repeated calls return the same *Process. Unlike the simulated Cluster, a
// Live handle's Poll queue fills from the fabric goroutine, so Poll and
// Pending are safe to call from any goroutine.
func (l *Live) Process(p int) *Process {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.handles) < l.np {
		grown := make([]*Process, l.np)
		copy(grown, l.handles)
		l.handles = grown
	}
	if l.handles[p] == nil {
		l.handles[p] = newProcess(l.make(p))
	}
	return l.handles[p]
}

// Close shuts the fabric down; subsequent sends fail with ErrClosed.
func (l *Live) Close() { l.once.Do(l.stop) }
