// Package core implements lib1pipe, the end-host runtime of 1Pipe (§6.1).
//
// A Host owns every 1Pipe process on one machine: it assigns monotonic
// message timestamps, runs the send buffer with scattering credits and
// DCTCP-style congestion control, fragments messages into UD-style packets,
// tracks end-to-end ACKs, computes the commit floor of reliable 1Pipe's two
// phase commit, generates beacons on the idle uplink, and reorders received
// messages in a priority queue for barrier-gated delivery.
//
// The package is substrate-independent: all I/O goes through the Wire
// interface, so the same state machines run on the deterministic network
// simulator (internal/netsim) and the star fabric (internal/udpnet, over UDP
// sockets or in memory on a virtual clock).
package core

import (
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Wire abstracts the host's attachment to the network and to time. Now
// must return the host's synchronized, monotonically non-decreasing clock.
type Wire interface {
	// Send injects a packet from this host into the network.
	Send(pkt *netsim.Packet)
	// Now returns the host clock in nanoseconds.
	Now() sim.Time
	// After schedules fn once, d nanoseconds from now.
	After(d sim.Time, fn func())
}

// Message is one element of a scattering: payload for one destination.
type Message struct {
	Dst  netsim.ProcID
	Data any
	// Size is the payload size in bytes used for fragmentation and
	// bandwidth accounting; zero is treated as 64.
	Size int
}

// Delivery is a message handed to the application, in (TS, Src) total
// order.
type Delivery struct {
	TS       sim.Time
	Src, Dst netsim.ProcID
	Data     any
	Reliable bool
	// Conflict is the sender-declared conflict key (DeliverConflictAware).
	// 0 = declared non-conflicting: delivered as soon as locally stable,
	// outside the cross-class total order.
	Conflict uint32
}

// SendFailure reports a message that will not be delivered: a best-effort
// message that was lost or NAKed, or a reliable message recalled because a
// receiver in its scattering failed (Table 1's send-fail callback).
type SendFailure struct {
	TS   sim.Time
	Dst  netsim.ProcID
	Data any
}

// DeliveryMode selects how the two reliability classes interleave at a
// receiver.
type DeliveryMode uint8

const (
	// DeliverSeparate treats best-effort and reliable 1Pipe as two
	// independent totally-ordered streams — the paper's default, giving
	// best-effort its 0.5 RTT + barrier-wait latency.
	DeliverSeparate DeliveryMode = iota
	// DeliverUnified gates every delivery on min(barrierBE, barrierC) so
	// the two classes form a single cross-class total order; best-effort
	// messages then pay commit-plane freshness when reliable traffic is
	// active.
	DeliverUnified
	// DeliverConflictAware relaxes DeliverUnified per Generic Multicast:
	// messages tagged with a nonzero SendOptions.ConflictKey keep the full
	// unified barrier wait (and are totally ordered against every other
	// tagged message, regardless of key value — a deliberately coarse
	// conflict relation, see DESIGN.md), while untagged (key 0) messages
	// deliver as soon as they are locally stable: best-effort immediately
	// on reassembly, reliable once the commit barrier covers them (so the
	// §5.2 recall window still protects atomicity). Untagged deliveries
	// never advance the total-order floors, so with every message tagged
	// the delivery log is byte-identical to DeliverUnified.
	DeliverConflictAware
)

// Config parameterizes lib1pipe on one host.
type Config struct {
	// MTU is the maximum payload bytes per packet.
	MTU int
	// InitCwnd and MaxCwnd bound the DCTCP congestion window (packets).
	InitCwnd, MaxCwnd float64
	// RTO is the reliable-service retransmission timeout.
	RTO sim.Time
	// MaxRetx bounds retransmissions before the sender escalates to the
	// controller (0 = unbounded).
	MaxRetx int
	// SendFailTimeout is how long a best-effort message may stay unACKed
	// before the send-failure callback fires (loss detection without
	// retransmission, §2.1).
	SendFailTimeout sim.Time
	// BeaconInterval is the host uplink beacon period (§4.2).
	BeaconInterval sim.Time
	// Mode selects the delivery interleaving (see DeliveryMode).
	Mode DeliveryMode
	// DisableBEAck turns off best-effort ACK generation (halves packet
	// count when loss detection is not needed, e.g. throughput sweeps).
	DisableBEAck bool
	// AckFlush batches end-to-end ACKs: per sender, ACK PSNs accumulate
	// for up to AckFlush (or ackBatchMax entries) before one coalesced
	// ACK packet is emitted — the polling-thread batching that keeps ACK
	// packet rate off the NIC's critical path (§6.1). Zero disables
	// batching (one ACK per packet).
	AckFlush sim.Time
	// DeliveryHoldback artificially lowers the effective barriers by the
	// given amount, inflating delivery latency and reorder-buffer
	// occupancy — the knob behind the paper's Fig. 11 overhead sweep.
	DeliveryHoldback sim.Time
	// BatchWindow is how long a partial multi-message frame waits for more
	// same-destination traffic before the doorbell flushes it (§6.1 send
	// batching); a frame's payload budget is the MTU. A send with
	// SendOptions.NoBatch is not coalesced at all.
	BatchWindow sim.Time
}

// Deployment parameters no figure or test varies.
const (
	// recvWindow is the per-connection receive buffer provision, in
	// packets; it caps the send window.
	recvWindow = 1024
	// dctcpGain is the g parameter of the DCTCP alpha EWMA.
	dctcpGain = 1.0 / 16.0
	// ackBatchMax flushes a coalesced ACK early once it holds this many
	// PSNs.
	ackBatchMax = 32
	// sendQueueCap bounds each connection's doorbell/send queue in
	// fragments; sends that would exceed it fail with ErrBackpressure.
	sendQueueCap = 65536
)

// DefaultConfig matches the paper's deployment parameters.
func DefaultConfig() Config {
	return Config{
		MTU:             1024,
		InitCwnd:        64,
		MaxCwnd:         1024,
		RTO:             20 * sim.Microsecond,
		MaxRetx:         64,
		SendFailTimeout: 100 * sim.Microsecond,
		BeaconInterval:  3 * sim.Microsecond,
		Mode:            DeliverSeparate,
		AckFlush:        1 * sim.Microsecond,
		BatchWindow:     1 * sim.Microsecond,
	}
}

// SendOptions parameterizes one scattering; the zero value is a
// best-effort send with the host's default batching.
type SendOptions struct {
	// Reliable selects reliable 1Pipe (2PC, recall on failure) instead of
	// best-effort.
	Reliable bool
	// BatchWindow overrides Config.BatchWindow for this scattering when
	// positive.
	BatchWindow sim.Time
	// NoBatch exempts this scattering from frame coalescing.
	NoBatch bool
	// ConflictKey declares the scattering's conflict class for
	// DeliverConflictAware receivers. 0 (the default) declares it
	// non-conflicting; other modes ignore the key.
	ConflictKey uint32
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MTU <= 0 {
		c.MTU = d.MTU
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = d.InitCwnd
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = d.MaxCwnd
	}
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.SendFailTimeout <= 0 {
		c.SendFailTimeout = d.SendFailTimeout
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = d.BeaconInterval
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = d.BatchWindow
	}
	return c
}

// engineWire is the optional Wire extension of a wire that runs on a
// simulation engine. A host on such a wire keeps its timers in that
// engine's queue — armed without allocating, gone from the queue the
// moment they are stopped — instead of over After, and takes and releases
// packets through the fabric's own free lists instead of the package-level
// concurrent pool.
type engineWire interface {
	// TimerEngine returns the engine the wire's After schedules on.
	TimerEngine() *sim.Engine
	// PacketPool returns the fabric's packet free lists, driven by the same
	// goroutine as the engine; nil selects the package-level pool.
	PacketPool() *netsim.Pool
}

// timer is core's one re-armable timer, embedded by value in the struct
// whose timeout it is; init binds it to the host and to a pointer-shaped
// handler over that struct (`(*connRTO)(c)`), so neither creating nor
// arming it allocates. On an engineWire it is the engine's cancellable
// timer; on any other wire it falls back to an epoch check over Wire.After,
// where a stopped or superseded firing still runs as a no-op.
//
// Whoever drops a struct with an embedded timer must stop it first: an
// armed timer is reachable from the queue. The struct is 48 bytes: each
// side of a busy pair holds two (connWork, rconnWork).
type timer struct {
	// st holds the handler on either path and is the queue entry on the
	// engine path.
	st sim.Timer
	// After fallback only.
	epoch uint64
	armed bool
}

// init binds the timer to h's timer queue and to the handler it fires.
func (t *timer) init(h *Host, hd sim.Handler) { t.st.Init(h.eng, hd) }

// release unbinds a disarmed timer from its handler, so that a pooled part
// holding it keeps no pair reachable. The epoch is kept: an After closure
// armed for the previous owner may still run, and only a later epoch
// tells it the arming it belongs to is gone.
func (t *timer) release() { t.st.Init(nil, nil) }

func (t *timer) reset(h *Host, d sim.Time) {
	if h.eng != nil {
		t.st.Reset(d)
		return
	}
	t.resetAfter(h.wire, d)
}

// resetAfter is the fallback arm: a fresh closure over Wire.After that the
// epoch invalidates if the timer is stopped or re-armed before it runs.
func (t *timer) resetAfter(w Wire, d sim.Time) {
	t.epoch++
	t.armed = true
	e := t.epoch
	w.After(d, func() {
		if t.epoch != e || !t.armed {
			return
		}
		t.armed = false
		t.st.Handler().Fire()
	})
}

func (t *timer) stop() {
	t.st.Stop()
	t.epoch++
	t.armed = false
}

func (t *timer) isArmed() bool { return t.armed || t.st.Armed() }
