package onepipe

import (
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/udpnet"
)

// Live is a real-time 1Pipe fabric over real UDP sockets on loopback: the
// same protocol state machines as the simulated Cluster, on wall-clock
// time. Use it to embed 1Pipe semantics in an actual program rather than an
// experiment. It satisfies Fabric, so code written against Process handles
// runs unchanged on the simulator and on sockets.
type Live struct {
	c *udpnet.Cluster

	mu      sync.Mutex
	handles []*Process
	once    sync.Once
}

// LiveConfig sizes a real-time (UDP) fabric.
type LiveConfig struct {
	Hosts        int
	ProcsPerHost int
	// BeaconInterval is T_beacon in wall-clock time (default 1 ms —
	// coarse enough for OS timers).
	BeaconInterval time.Duration
	// Impair degrades data-plane packets at the software switch with the
	// composable model (loss, burst loss, jitter, extra delay).
	// &Impairment{Loss: rate} is plain injected loss.
	Impair *Impairment
	// Seed makes injected loss reproducible; zero draws from the wall
	// clock.
	Seed int64
	// BatchWindow overrides the send-side frame-coalescing window
	// (default 1 us). A send with the Unbatched option is not coalesced
	// at all.
	BatchWindow time.Duration
}

// endpointOverride translates LiveConfig.BatchWindow into a lib1pipe
// endpoint override, or nil when the default stands.
func (cfg LiveConfig) endpointOverride() *core.Config {
	if cfg.BatchWindow <= 0 {
		return nil
	}
	e := core.DefaultConfig()
	e.BatchWindow = Timestamp(cfg.BatchWindow)
	return &e
}

// udpBackend wires a Process handle to the UDP fabric's ProcHandle,
// resolved once when the handle is made.
type udpBackend struct {
	c *udpnet.Cluster
	h *udpnet.ProcHandle
	p int
}

func (b udpBackend) id() ProcID { return ProcID(b.p) }
func (b udpBackend) send(msgs []Message, o core.SendOptions) error {
	return b.h.SendOpts(msgs, o)
}
func (b udpBackend) setOnDeliver(fn func(Delivery))           { b.h.OnDeliver(fn) }
func (b udpBackend) setOnDeliverBatch(fn func([]Delivery))    { b.h.OnDeliverBatch(fn) }
func (b udpBackend) setOnSendFail(fn func(SendFailure))       { b.h.OnSendFail(fn) }
func (b udpBackend) setOnProcFail(fn func(ProcID, Timestamp)) { b.h.OnProcFail(fn) }
func (b udpBackend) now() Timestamp                           { return b.c.Now() }

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
	return &Live{c: c}, nil
}

// NumProcesses returns the process count.
func (l *Live) NumProcesses() int { return l.c.NumProcs() }

// Join grows the running fabric by one host and returns its index once the
// host has registered with the software switch; its uplink registers are
// seeded at the current aggregate, so the global barrier never regresses.
// The new host's processes appear at the tail of the process space. Sends
// may race a Join; Joins must not race each other.
func (l *Live) Join() (int, error) { return l.c.Join() }

// Drain gracefully removes a host: new sends on it fail with ErrClosed,
// its send window flushes, then it leaves barrier aggregation and beacon
// relays for good. Blocks until the host has fully detached. No failure
// callbacks fire.
func (l *Live) Drain(host int) error { return l.c.Drain(host) }

// Process returns the endpoint handle of process p. Handles are cached:
// repeated calls return the same *Process. Unlike the simulated Cluster, a
// Live handle's Poll queue fills from the fabric goroutine, so Poll and
// Pending are safe to call from any goroutine.
func (l *Live) Process(p int) *Process {
	l.mu.Lock()
	defer l.mu.Unlock()
	if np := l.c.NumProcs(); len(l.handles) < np {
		grown := make([]*Process, np)
		copy(grown, l.handles)
		l.handles = grown
	}
	if l.handles[p] == nil {
		l.handles[p] = newProcess(udpBackend{c: l.c, h: l.c.Proc(p), p: p})
	}
	return l.handles[p]
}

// Close shuts the fabric down; subsequent sends fail with ErrClosed.
func (l *Live) Close() { l.once.Do(l.c.Close) }
