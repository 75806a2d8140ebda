// Package onepipe is a Go implementation of 1Pipe, the causally and
// totally ordered communication abstraction of "1Pipe: Scalable Total
// Order Communication in Data Center Networks" (SIGCOMM 2021).
//
// 1Pipe lets every receiver in a data center deliver messages from all
// senders in one consistent (timestamp, sender) total order. Its unit of
// transmission is the scattering: a group of messages to different
// destinations that occupy the same position in the total order. Two
// service classes are provided:
//
//   - Best effort: delivered in 0.5 RTT plus barrier wait; lost messages
//     are detected (send-failure callback) but never retransmitted.
//   - Reliable: two-phase commit with in-network commit-barrier
//     aggregation; delivery is guaranteed unless a participant fails, in
//     which case the whole scattering is recalled (restricted failure
//     atomicity).
//
// The package deploys a complete 1Pipe fabric over a deterministic
// discrete-event data center simulation: a multi-rooted Clos topology
// whose switches aggregate barrier timestamps (the paper's programmable
// chip, switch-CPU and host-delegate incarnations), PTP-style synchronized
// host clocks, a UD-style transport with DCTCP congestion control, and a
// Raft-replicated failure controller.
//
// Quickstart:
//
//	cluster := onepipe.NewCluster(onepipe.Defaults())
//	p0, p1 := cluster.Process(0), cluster.Process(1)
//	p1.OnDeliver(func(d onepipe.Delivery) {
//		fmt.Printf("t=%v from=%d %v\n", d.TS, d.Src, d.Data)
//	})
//	p0.Send([]onepipe.Message{{Dst: 1, Data: "hello", Size: 64}})
//	cluster.Run(200 * onepipe.Microsecond)
//
// The same Process API runs unchanged on the real-time fabric
// (NewUDPCluster); the Fabric interface abstracts over both deployments.
package onepipe

import (
	"fmt"
	"sync"

	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/reconfig"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Timestamp is a 1Pipe timestamp: nanoseconds of synchronized host time.
type Timestamp = sim.Time

// Convenient duration units for Run and configuration fields.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// ProcID identifies a 1Pipe process.
type ProcID = netsim.ProcID

// Message is one element of a scattering.
type Message = core.Message

// Delivery is a message delivered in total order.
type Delivery = core.Delivery

// SendFailure reports a message that will not be delivered.
type SendFailure = core.SendFailure

// Topology sizes the simulated Clos network.
type Topology = topology.ClosConfig

// Mode selects the in-network processing incarnation.
type Mode = netsim.Mode

// Incarnations of in-network barrier aggregation (§6.2).
const (
	ModeChip         = netsim.ModeChip
	ModeSwitchCPU    = netsim.ModeSwitchCPU
	ModeHostDelegate = netsim.ModeHostDelegate
)

// DeliveryMode selects how a receiver orders the two service classes.
type DeliveryMode = core.DeliveryMode

// Delivery modes (see internal/core.DeliveryMode).
const (
	DeliverSeparate      = core.DeliverSeparate
	DeliverUnified       = core.DeliverUnified
	DeliverConflictAware = core.DeliverConflictAware
)

// Impairment describes composable link degradations — uniform loss,
// jitter, Gilbert-Elliott burst loss, duty-cycle outages, reordering, RTT
// classes. See netsim.Impairment for the determinism contract.
type Impairment = netsim.Impairment

// ImpairmentProfile attaches Impairments to the simulated fabric: per
// link, per link class, or fabric-wide (most-specific-wins).
type ImpairmentProfile = netsim.Profile

// ErrSendBufferFull is returned by sends when the host's wait queue is at
// capacity.
var ErrSendBufferFull = core.ErrSendBufferFull

// ErrBackpressure matches (errors.Is) send errors returned when a
// connection's doorbell queue is full; the concrete *BackpressureError
// carries the earliest time a retry can drain.
var ErrBackpressure = core.ErrBackpressure

// BackpressureError is the concrete backpressure send error.
type BackpressureError = core.BackpressureError

// ErrClosed matches (errors.Is) send errors returned after a fabric or
// host has been closed.
var ErrClosed = core.ErrClosed

// Fabric is the deployment-independent surface of a running 1Pipe fabric,
// satisfied by the simulated *Cluster and the real-time *Live.
type Fabric interface {
	// Process returns the endpoint handle of process p; handles are
	// cached, so repeated calls return the same *Process.
	Process(p int) *Process
	// NumProcesses returns the number of deployed processes.
	NumProcesses() int
	// Join grows the running fabric by one host through an epoch-based
	// live reconfiguration and returns the new host's index once it is
	// active. The host's processes appear at the tail of the process
	// space; every timestamp they emit exceeds the join epoch, so no
	// receiver's delivered barrier ever regresses.
	Join() (int, error)
	// Drain gracefully removes a host from the running fabric: new sends
	// on it fail with ErrClosed, its send window flushes, then it leaves
	// routing and barrier aggregation for good. Unlike a crash, a drain
	// assigns no failure timestamp, recalls nothing, and fires no failure
	// callbacks.
	Drain(host int) error
	// Close shuts the fabric down; subsequent sends fail with ErrClosed.
	Close()
}

var (
	_ Fabric = (*Cluster)(nil)
	_ Fabric = (*Live)(nil)
)

// SendOption refines one Send call.
type SendOption func(*core.SendOptions)

// Reliable selects reliable 1Pipe: two-phase commit, guaranteed delivery
// unless a participant fails (then the whole scattering is recalled).
func Reliable() SendOption {
	return func(o *core.SendOptions) { o.Reliable = true }
}

// Batched overrides the fabric's frame-coalescing window for this
// scattering: its fragments may wait up to window for more
// same-destination traffic to share a wire frame with.
func Batched(window Timestamp) SendOption {
	return func(o *core.SendOptions) { o.BatchWindow = window }
}

// Unbatched exempts this scattering from frame coalescing; it goes to the
// wire immediately (at the cost of one packet per message).
func Unbatched() SendOption {
	return func(o *core.SendOptions) { o.NoBatch = true }
}

// Conflicts declares the scattering's conflict class for conflict-aware
// fabrics (Config.Delivery = DeliverConflictAware): scatterings tagged with any nonzero key
// stay in the cross-class total order, while untagged scatterings deliver as
// soon as they are locally stable — best-effort in 0.5 RTT, reliable at the
// commit barrier — outside that order (Generic Multicast's conflict
// relation, coarsened to "tagged conflicts with tagged"; see DESIGN.md).
// key 0 is identical to omitting the option; other delivery modes ignore
// the tag entirely.
func Conflicts(key uint32) SendOption {
	return func(o *core.SendOptions) { o.ConflictKey = key }
}

// Config assembles a 1Pipe deployment.
type Config struct {
	// Topology is the Clos network to simulate; Testbed() is the paper's
	// 32-server, 10-switch fabric.
	Topology Topology
	// ProcsPerHost is the number of 1Pipe processes per server.
	ProcsPerHost int
	// Mode selects the switch incarnation (default ModeChip).
	Mode Mode
	// BeaconInterval is T_beacon (default 3 us).
	BeaconInterval Timestamp
	// Impair degrades simulated links with composable impairment profiles
	// (loss, jitter, burst loss, RTT classes); nil keeps links lossless.
	// netsim.UniformLoss(rate) is the plain per-link corruption probability.
	Impair *ImpairmentProfile
	// Seed makes the run reproducible.
	Seed int64
	// WithController deploys the Raft-replicated failure controller and
	// gates the commit plane on its Resume step. Required for reliable
	// 1Pipe's restricted failure atomicity under crashes.
	WithController bool
	// Delivery selects the delivery mode (default DeliverSeparate, the
	// paper's two independent orders). DeliverUnified delivers both
	// service classes in one cross-class total order; DeliverConflictAware
	// keeps only scatterings sent with the Conflicts option in that order
	// and delivers untagged ones when locally stable.
	Delivery DeliveryMode
	// BatchWindow overrides how long a partial multi-message wire frame
	// waits for more same-destination traffic (default 1 us simulated).
	// A send with the Unbatched option is not coalesced at all.
	BatchWindow Timestamp
}

// Testbed returns the paper's evaluation topology.
func Testbed() Topology { return topology.Testbed() }

// Defaults returns a small two-pod cluster configuration suitable for
// examples and tests.
func Defaults() Config {
	return Config{
		Topology:     Topology{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2},
		ProcsPerHost: 1,
		Mode:         ModeChip,
		Seed:         1,
	}
}

// Cluster is a deployed 1Pipe fabric plus its simulated data center.
type Cluster struct {
	cfg     Config
	net     *netsim.Network
	core    *core.Cluster
	ctrl    *controller.Controller
	handles []*Process
	elastic *reconfig.Engine
	joins   int
}

// NewCluster builds the network, deploys lib1pipe on every host, and (if
// configured) starts the replicated controller.
func NewCluster(cfg Config) *Cluster {
	ncfg := netsim.DefaultConfig(cfg.Topology, cfg.ProcsPerHost)
	ncfg.Mode = cfg.Mode
	ncfg.Impair = cfg.Impair
	if cfg.BeaconInterval > 0 {
		ncfg.BeaconInterval = cfg.BeaconInterval
	}
	if cfg.Seed != 0 {
		ncfg.Seed = cfg.Seed
	}
	ncfg.ControllerManagedCommit = cfg.WithController
	ecfg := core.DefaultConfig()
	ecfg.Mode = cfg.Delivery
	if cfg.BatchWindow > 0 {
		ecfg.BatchWindow = cfg.BatchWindow
	}
	n := netsim.New(ncfg)
	cl := core.Deploy(n, ecfg)
	c := &Cluster{cfg: cfg, net: n, core: cl}
	if cfg.WithController {
		c.ctrl = controller.New(n, cl)
		c.ctrl.Raft.WaitLeader(50 * Millisecond)
	}
	// Buffer every process's deliveries for Poll until the application
	// registers a callback.
	c.handles = make([]*Process, len(cl.Procs))
	for p := range cl.Procs {
		c.Process(p)
	}
	return c
}

// NumProcesses returns the number of deployed processes.
func (c *Cluster) NumProcesses() int { return len(c.core.Procs) }

// Process returns the endpoint of process p. Handles are cached: repeated
// calls return the same *Process.
func (c *Cluster) Process(p int) *Process {
	if len(c.handles) < len(c.core.Procs) {
		grown := make([]*Process, len(c.core.Procs))
		copy(grown, c.handles)
		c.handles = grown
	}
	if c.handles[p] == nil {
		c.handles[p] = newProcess(simBackend{proc: c.core.Procs[p]})
	}
	return c.handles[p]
}

// Reconfig returns the live-reconfiguration engine, built on first use over
// the deployed network, runtimes, and controller (if any). Switch add/drain
// and explicitly placed host joins go through it directly; Join and Drain
// are the placement-free shorthands.
func (c *Cluster) Reconfig() *reconfig.Engine {
	if c.elastic == nil {
		c.elastic = reconfig.New(c.net, c.core, c.ctrl)
	}
	return c.elastic
}

// Join grows the fabric by one host, placed round-robin across the racks,
// and advances simulated time until the join epoch commits and the host is
// active. It returns the new host's index; its processes appear at the tail
// of the process space.
func (c *Cluster) Join() (int, error) {
	e := c.Reconfig()
	tc := c.net.G.Config
	pod := c.joins % tc.Pods
	rack := (c.joins / tc.Pods) % tc.RacksPerPod
	joined := false
	hi, err := e.JoinHost(pod, rack, func(*core.Host, sim.Time) { joined = true })
	if err != nil {
		return -1, err
	}
	c.joins++
	if err := c.runUntil(func() bool { return joined }, 100*Millisecond); err != nil {
		return -1, fmt.Errorf("join host %d: %w", hi, err)
	}
	return hi, nil
}

// Drain gracefully removes a host, advancing simulated time until its send
// window has flushed and the drain epoch has committed.
func (c *Cluster) Drain(host int) error {
	e := c.Reconfig()
	drained := false
	if err := e.DrainHost(host, func() { drained = true }); err != nil {
		return err
	}
	if err := c.runUntil(func() bool { return drained }, 500*Millisecond); err != nil {
		return fmt.Errorf("drain host %d: %w", host, err)
	}
	return nil
}

// runUntil advances the simulation in small steps until done reports true,
// or fails after limit of simulated time.
func (c *Cluster) runUntil(done func() bool, limit Timestamp) error {
	deadline := c.net.Eng.Now() + limit
	for !done() {
		if c.net.Eng.Now() >= deadline {
			return fmt.Errorf("reconfiguration did not complete within %d ns simulated", limit)
		}
		c.net.Eng.RunFor(10 * Microsecond)
	}
	return nil
}

// Close stops every host endpoint; subsequent sends fail with ErrClosed.
// The simulated network itself needs no teardown.
func (c *Cluster) Close() {
	for _, h := range c.core.Hosts {
		h.Stop()
	}
}

// Run advances the simulated data center by d.
func (c *Cluster) Run(d Timestamp) { c.net.Eng.RunFor(d) }

// Now returns the current simulation time.
func (c *Cluster) Now() Timestamp { return c.net.Eng.Now() }

// Network exposes the underlying simulated network (failure injection,
// statistics) for experiments.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Core exposes the deployed lib1pipe runtimes.
func (c *Cluster) Core() *core.Cluster { return c.core }

// Controller returns the failure controller, or nil if not deployed.
func (c *Cluster) Controller() *controller.Controller { return c.ctrl }

// KillHost crash-fails a server; with a controller deployed, reliable
// 1Pipe runs the full Detect/Determine/Broadcast/Discard/Recall/Callback/
// Resume pipeline of §5.2.
func (c *Cluster) KillHost(host int) {
	c.core.Hosts[host].Stop()
	c.net.G.KillNode(c.net.G.Host(host))
}

// procBackend is the per-deployment wiring behind a Process handle: the
// simulator pokes the endpoint directly; the real-time fabric routes
// through its host lock.
type procBackend interface {
	id() ProcID
	send(msgs []Message, o core.SendOptions) error
	setOnDeliver(fn func(Delivery))
	setOnDeliverBatch(fn func([]Delivery))
	setOnSendFail(fn func(SendFailure))
	setOnProcFail(fn func(ProcID, Timestamp))
	now() Timestamp
}

// simBackend wires a Process to a simulated endpoint. The simulator is
// single-threaded, so field writes need no synchronization.
type simBackend struct{ proc *core.Proc }

func (b simBackend) id() ProcID { return b.proc.ID }
func (b simBackend) send(msgs []Message, o core.SendOptions) error {
	return b.proc.SendOpts(msgs, o)
}
func (b simBackend) setOnDeliver(fn func(Delivery))           { b.proc.OnDeliver = fn }
func (b simBackend) setOnDeliverBatch(fn func([]Delivery))    { b.proc.OnDeliverBatch = fn }
func (b simBackend) setOnSendFail(fn func(SendFailure))       { b.proc.OnSendFail = fn }
func (b simBackend) setOnProcFail(fn func(ProcID, Timestamp)) { b.proc.OnProcFail = fn }
func (b simBackend) now() Timestamp                           { return b.proc.Timestamp() }

// Process is one 1Pipe endpoint, exposing the Table 1 API. The same handle
// type fronts every fabric (simulated or real-time).
type Process struct {
	backend procBackend

	// mu guards the Poll queue: real-time fabrics append deliveries from
	// their own goroutine while the application polls from another.
	mu    sync.Mutex
	queue []Delivery
}

func newProcess(b procBackend) *Process {
	p := &Process{backend: b}
	// Buffer deliveries for Poll until the application registers a
	// callback of its own.
	b.setOnDeliver(func(d Delivery) {
		p.mu.Lock()
		p.queue = append(p.queue, d)
		p.mu.Unlock()
	})
	return p
}

// ID returns the process identifier.
func (p *Process) ID() ProcID { return p.backend.id() }

// Send issues a scattering: a group of messages to different destinations
// occupying one position in the total order. The zero-option call is a
// best-effort send (Table 1's onepipe_unreliable_send) with the fabric's
// default frame coalescing; refine it with Reliable (onepipe_reliable_send),
// Batched, or Unbatched. Sends can fail with
// ErrSendBufferFull, ErrBackpressure (doorbell queue full; the error
// carries the earliest drain time), or ErrClosed.
//
// Send copies the messages into the fabric's send buffer, so the caller may
// reuse msgs as soon as Send returns. The copy is shallow: what a message's
// Data refers to is handed over and must not change afterwards, since
// transmissions and retransmissions read it.
func (p *Process) Send(msgs []Message, opts ...SendOption) error {
	if len(opts) == 0 {
		return p.backend.send(msgs, core.SendOptions{})
	}
	// Applying an option through its func value makes its target escape, so
	// the options are applied into a pooled scratch struct and copied out by
	// value: an option-carrying send allocates nothing either. A pool rather
	// than a field of the Process, because the real-time fabrics send from
	// several goroutines.
	scratch := sendOptsPool.Get().(*core.SendOptions)
	*scratch = core.SendOptions{}
	for _, opt := range opts {
		opt(scratch)
	}
	o := *scratch
	sendOptsPool.Put(scratch)
	return p.backend.send(msgs, o)
}

var sendOptsPool = sync.Pool{New: func() any { return new(core.SendOptions) }}

// OnDeliver registers the delivery callback; messages arrive in
// (timestamp, sender) total order (the push-style equivalent of
// onepipe_unreliable_recv / onepipe_reliable_recv). Registering a callback
// supersedes the Poll queue. On real-time fabrics the callback runs on the
// fabric's internal goroutine; hand heavy work off.
func (p *Process) OnDeliver(fn func(Delivery)) { p.backend.setOnDeliver(fn) }

// OnDeliverBatch registers the batched delivery fast path: contiguous
// below-barrier runs destined for this process arrive as one slice, in the
// same total order OnDeliver would present them. It takes precedence over
// OnDeliver. The slice is reused by the runtime after the callback
// returns; copy deliveries out to retain them.
func (p *Process) OnDeliverBatch(fn func([]Delivery)) { p.backend.setOnDeliverBatch(fn) }

// Poll returns the next delivery in total order, pull-style — the direct
// analogue of Table 1's recv calls. Deliveries accumulate in an internal
// queue while neither OnDeliver nor Poll has consumed them.
func (p *Process) Poll() (Delivery, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return Delivery{}, false
	}
	d := p.queue[0]
	p.queue = p.queue[1:]
	return d, true
}

// Pending reports how many deliveries are queued for Poll.
func (p *Process) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// OnSendFail registers the send-failure callback
// (onepipe_send_fail_callback).
func (p *Process) OnSendFail(fn func(SendFailure)) { p.backend.setOnSendFail(fn) }

// OnProcFail registers the process-failure callback
// (onepipe_proc_fail_callback).
func (p *Process) OnProcFail(fn func(proc ProcID, ts Timestamp)) { p.backend.setOnProcFail(fn) }

// Timestamp returns the host's current synchronized timestamp
// (onepipe_get_timestamp).
func (p *Process) Timestamp() Timestamp { return p.backend.now() }
