package core

import (
	"errors"
	"fmt"

	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// ErrSendBufferFull is returned when the credit wait queue is at capacity;
// the application should back off and retry (§6.1: "If the send buffer is
// full, the send API returns fail").
var ErrSendBufferFull = errors.New("onepipe: send buffer full")

// ErrNoMessages is returned for an empty scattering.
var ErrNoMessages = errors.New("onepipe: empty scattering")

// ErrClosed is returned for sends on a stopped host or a closed fabric.
var ErrClosed = errors.New("onepipe: closed")

// ErrBadDst is returned for a destination outside [0, MaxProcs).
var ErrBadDst = errors.New("onepipe: destination out of range")

// MaxProcs bounds process IDs to [0, MaxProcs): a process keeps its pairs
// in tables indexed by peer ID, so a packet from outside the bound is
// dropped and a send to outside it refused. One malformed packet can grow
// a table to at most 4 B × MaxProcs (256 KiB).
const MaxProcs = 1 << 16

// validProc reports whether id is in [0, MaxProcs).
func validProc(id netsim.ProcID) bool { return uint32(id) < MaxProcs }

// ErrBackpressure is the sentinel matched by errors.Is for
// *BackpressureError returns.
var ErrBackpressure = errors.New("onepipe: backpressure")

// BackpressureError is returned when a destination's doorbell/send queue
// is at sendQueueCap: instead of growing the queue without bound
// the send is refused, carrying the earliest time the queue is expected
// to have drained enough to retry.
type BackpressureError struct {
	// Dst is the congested destination.
	Dst netsim.ProcID
	// RetryAt is the earliest-drain estimate: the congested connection's
	// pending doorbell flush if one is armed, otherwise one RTO from now.
	RetryAt sim.Time
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("onepipe: backpressure toward %d, retry at %v", e.Dst, e.RetryAt)
}

// Is makes errors.Is(err, ErrBackpressure) match.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// sendBufCap bounds the number of credit-blocked scatterings per host.
const sendBufCap = 65536

// HostStats counts per-host protocol events.
type HostStats struct {
	MsgsSent          uint64
	MsgsDelivered     uint64
	MsgsFailed        uint64
	PktsSent          uint64
	PktsRetx          uint64
	Naks              uint64
	DupPkts           uint64
	Commits           uint64
	Beacons           uint64
	BeaconsSuppressed uint64 // beacon ticks elided because data carried the floor
	Recalled          uint64
	StuckReports      uint64 // MaxRetx exhaustions escalated, deduplicated per (dst, ts)
	FramesSent        uint64 // multi-message frames emitted (>= 2 live members)
	FrameMsgs         uint64 // messages carried inside multi-message frames
	Backpressure      uint64 // sends refused with ErrBackpressure
	DeliverBatches    uint64 // OnDeliverBatch invocations
	BufferedBytes     int64  // current reorder-buffer occupancy
	MaxBufferBytes    int64
	BufferedMsgs      int64
	// RelaxedDeliveries counts deliveries that bypassed the cross-class
	// total order: untagged messages under DeliverConflictAware.
	RelaxedDeliveries uint64
	// Reorder-buffer and per-pair state gauges.
	ReorderHotMax int64 // peak entries in any one plane's buffer
	ConnsLive     int64 // conn + rconn pairs met so far; a pair is kept for life
}

// Host is the lib1pipe runtime for one machine (§6.1). All processes on
// the host share its clock, its uplink and its barrier state.
type Host struct {
	Cfg   Config
	ID    int
	Stats HostStats

	// Obs, if set, receives message-lifecycle span records (internal/obs).
	// Install it before traffic flows; a nil tracer costs the hot path one
	// predictable branch per record site.
	Obs *obs.Trace

	wire Wire
	// dataBarriers: with a programmable chip every received packet carries
	// valid barriers; with switch-CPU or host-delegate processing only
	// beacons do (§6.2.2). NewHost sets it; Deploy and AddHost derive it
	// from the simulated fabric's mode.
	dataBarriers bool
	// eng is the wire's simulation engine when it has one (engineWire): the
	// host's timers are then that engine's timers. Nil selects the After
	// fallback.
	eng *sim.Engine
	// pool is the fabric's packet free list on an engineWire, nil (the
	// package-level concurrent pool) otherwise.
	pool *netsim.Pool
	// scats is the fabric's scattering free lists, kept in pool; nil (no
	// recycling) off an engineWire.
	scats *scatPool
	// procs holds the local processes by their offset from procBase, the
	// lowest local ID: a host's processes are one block of IDs.
	procs    []*Proc
	procBase netsim.ProcID

	// Timestamping.
	lastTS      sim.Time // last assigned message timestamp
	advertisedC sim.Time // commit floor most recently advertised
	// Send side.
	waitQ []*scattering // credit-blocked, FIFO (held credits, §6.1)
	// held lists the connections with a doorbell-held partial frame and
	// the held head's timestamp (connWork.holdIdx is the position plus one);
	// heldFloor caches the minimum so tsFloor can clamp the advertised
	// barrier below every held (already timestamped but not yet emitted)
	// message in O(1).
	held      []heldConn
	heldFloor sim.Time
	// sendOcc / recvOcc record batch occupancy: messages per emitted
	// batchable unit and per delivery batch.
	sendOcc *stats.Histogram
	recvOcc *stats.Histogram
	// outstanding holds launched reliable scatterings in ascending ts
	// order until fully ACKed or aborted; its head bounds the commit
	// floor (§5.1 Commit phase).
	outstanding []*scattering
	// Receive side.
	barrierBE sim.Time
	barrierC  sim.Time
	// beQ/relQ order the two reliability planes; rlxQ holds untagged
	// reliable traffic under DeliverConflictAware, drained by the commit
	// barrier alone (outside the cross-class order).
	beQ, relQ, rlxQ deliveryHeap
	// (deliveredBE, deliveredSrc) is the (ts, src) key of the last message
	// delivered on the best-effort floor — under DeliverUnified and
	// DeliverConflictAware the last of the one merged order, so both
	// classes advance it; deliveredC is the commit plane's timestamp.
	deliveredBE  sim.Time
	deliveredSrc netsim.ProcID
	deliveredC   sim.Time
	// pendFree recycles delivered reorder-buffer entries (getPending /
	// putPending); it never holds more than the buffers' peak occupancy.
	pendFree []*pending
	// conns and rconns hold the send and receive sides of every pair the
	// local processes have met, by value; the processes' tables address
	// them by position.
	conns  slab[conn]
	rconns slab[rconn]
	// connFree and rconnFree are LIFO free lists of pairs' transient parts
	// (attach / settle): they hold at most as many as were ever busy at once.
	connFree  []*connWork
	rconnFree []*rconnWork
	// batchQ accumulates a contiguous run of below-barrier deliveries for
	// one process during drain; flushed through OnDeliverBatch. The slice
	// is reused across batches — receivers must not retain it.
	batchQ   []Delivery
	batchDst netsim.ProcID
	// Failure state.
	failedPeers map[netsim.ProcID]sim.Time // proc -> failure timestamp
	recallTomb  map[recallKey]bool
	recalls     map[recallKey]*recallState
	failDone    func()
	failWait    int
	// stuckReported deduplicates OnStuck escalations: retransmission
	// exhaustion re-examines the same stall every RTO, and the data and
	// recall paths can stall on the same (dst, ts).
	stuckReported map[recallKey]bool

	// OnStuck, if set, is called when a reliable message or recall from
	// src exhausted MaxRetx retransmissions toward dst; the
	// controller-forwarding path (§5.2) hooks in here.
	OnStuck func(src, dst netsim.ProcID, ts sim.Time)

	beaconTimer    timer
	lastUplinkSend sim.Time
	started        bool
	stopped        bool
	// draining refuses new sends while the window flushes — the first
	// phase of a graceful leave. Unlike stopped, timers keep running so
	// outstanding scatterings can complete and ACKs still flow.
	draining bool
	// reprProc identifies this host on substrates that key uplink barrier
	// registers by packet source (e.g. the UDP switch): beacons and
	// commit messages carry it as Src.
	reprProc netsim.ProcID
	hasRepr  bool
}

type recallKey struct {
	dst netsim.ProcID
	ts  sim.Time
}

type recallState struct {
	scat  *scattering
	key   recallKey
	timer timer
	tries int
}

// NewHost creates the lib1pipe runtime for host id over the given wire.
// Call Start to begin beacon generation, then AddProc for each process.
func NewHost(id int, wire Wire, cfg Config) *Host {
	h := &Host{
		Cfg:           cfg.withDefaults(),
		ID:            id,
		wire:          wire,
		dataBarriers:  true,
		failedPeers:   make(map[netsim.ProcID]sim.Time),
		recallTomb:    make(map[recallKey]bool),
		recalls:       make(map[recallKey]*recallState),
		stuckReported: make(map[recallKey]bool),
		sendOcc:       new(stats.Histogram),
		recvOcc:       new(stats.Histogram),
	}
	if ew, ok := wire.(engineWire); ok {
		h.eng, h.pool = ew.TimerEngine(), ew.PacketPool()
		h.scats = scatPoolOf(h.pool)
	}
	return h
}

// SendOccupancy is the distribution of messages per emitted batchable
// unit (1 = a message that found no company within its batch window).
func (h *Host) SendOccupancy() *stats.Histogram { return h.sendOcc }

// RecvOccupancy is the distribution of deliveries per OnDeliverBatch
// invocation.
func (h *Host) RecvOccupancy() *stats.Histogram { return h.recvOcc }

// heldConn is one entry of Host.held.
type heldConn struct {
	c  *conn
	ts sim.Time
}

// holdSet records that c is doorbell-holding a partial frame whose oldest
// member carries ts (never 0: nextTS starts at 1). A new or moved hold can
// only lower the floor, unless it is the first or moves the one that was
// the floor (or tied with it): only then is the list walked.
func (h *Host) holdSet(c *conn, ts sim.Time) {
	var old sim.Time
	w := c.work
	if w.holdIdx == 0 {
		h.held = append(h.held, heldConn{c, ts})
		w.holdIdx = int32(len(h.held))
	} else {
		e := &h.held[w.holdIdx-1]
		if old = e.ts; old == ts {
			return
		}
		e.ts = ts
	}
	if old == h.heldFloor {
		h.recomputeHeldFloor()
	} else if ts < h.heldFloor {
		h.heldFloor = ts
	}
}

// holdClear removes c from the held set; the last entry takes its place.
func (h *Host) holdClear(c *conn) {
	w := c.work
	if w.holdIdx == 0 {
		return
	}
	i, last := int(w.holdIdx)-1, len(h.held)-1
	old := h.held[i].ts
	h.held[i] = h.held[last]
	h.held[i].c.work.holdIdx = int32(i + 1)
	h.held[last] = heldConn{}
	h.held = h.held[:last]
	w.holdIdx = 0
	if old == h.heldFloor {
		h.recomputeHeldFloor()
	}
}

func (h *Host) recomputeHeldFloor() {
	h.heldFloor = 0
	for i := range h.held {
		if ts := h.held[i].ts; h.heldFloor == 0 || ts < h.heldFloor {
			h.heldFloor = ts
		}
	}
}

// Start arms the host's uplink beacon generator (§4.2).
func (h *Host) Start() {
	if h.started {
		return
	}
	h.started = true
	h.beaconTimer.init(h, (*hostBeacon)(h))
	h.beaconTimer.reset(h, h.Cfg.BeaconInterval)
}

// hostBeacon is the handler of the host's periodic beacon timer.
type hostBeacon Host

func (h *hostBeacon) Fire() { (*Host)(h).beaconTick() }

// SetFloor forces the host's timestamping state to at least t: the next
// message timestamp and the advertised commit floor both start above it.
// Live reconfiguration calls this on a joining host with the epoch T_join,
// honoring the promise its pre-seeded link registers already made — no
// message from this host may ever carry a timestamp at or below T_join.
func (h *Host) SetFloor(t sim.Time) {
	if t > h.lastTS {
		h.lastTS = t
	}
	if t > h.advertisedC {
		h.advertisedC = t
	}
}

// Drain begins a graceful leave: new sends are refused with ErrClosed, but
// beacons, retransmissions and ACKs keep running until every outstanding
// scattering, queued frame and recall has flushed. done fires once the
// window is empty; the caller then detaches the host from aggregation and
// calls Stop. Distinct from failure: no failure timestamp is assigned, no
// Recall is initiated and no OnStuck report is generated by the drain
// itself.
func (h *Host) Drain(done func()) {
	if h.stopped {
		done()
		return
	}
	h.draining = true
	var poll func()
	poll = func() {
		if h.stopped {
			return
		}
		// Send-side state only: receiver duties (ACK coalescing, held
		// deliveries) are continuously refilled by peers still sending and
		// run until Stop; a scattering the departing host never finished
		// acknowledging is recalled at its sender, which is the same
		// outcome an ignored ACK would produce.
		if len(h.outstanding) == 0 && len(h.waitQ) == 0 && len(h.held) == 0 &&
			len(h.recalls) == 0 {
			done()
			return
		}
		h.wire.After(h.Cfg.BeaconInterval, poll)
	}
	poll()
}

// Draining reports whether a graceful leave is in progress.
func (h *Host) Draining() bool { return h.draining }

// Stop halts beacon generation and timers; the host no longer participates.
func (h *Host) Stop() {
	h.stopped = true
	h.beaconTimer.stop()
	// Only attached parts can hold an armed timer: settle takes disarmed
	// ones alone.
	h.eachPair(func(c *conn) {
		if w := c.work; w != nil {
			w.rto.stop()
			w.doorbell.stop()
			c.stopFailTimers()
		}
	}, func(rc *rconn) {
		if w := rc.work; w != nil {
			w.acks[0].timer.stop()
			w.acks[1].timer.stop()
		}
	})
	for _, r := range h.recalls {
		r.timer.stop()
	}
}

// beaconTick emits the host's periodic uplink beacon (§6.1: the polling
// thread generates periodic beacon packets). When the uplink carried any
// emission within the last interval, that emission already advertised a
// floor at least as fresh as this tick would, so the standalone beacon is
// suppressed (beacon piggybacking); the strict "deliver below barrier"
// rule stays intact because an idle interval always ends with a real
// beacon whose floor exceeds the last data timestamp.
func (h *Host) beaconTick() {
	if h.stopped {
		return
	}
	if h.lastUplinkSend > 0 &&
		h.wire.Now()-h.lastUplinkSend < h.Cfg.BeaconInterval {
		h.Stats.BeaconsSuppressed++
	} else {
		h.sendBeacon()
	}
	h.beaconTimer.reset(h, h.Cfg.BeaconInterval)
}

func (h *Host) sendBeacon() {
	h.Stats.Beacons++
	pkt := h.pool.Get()
	pkt.Kind, pkt.Src, pkt.Size = netsim.KindBeacon, h.reprProc, netsim.BeaconBytes
	h.emit(pkt)
}

// emit stamps the barrier fields every host packet carries and sends it.
func (h *Host) emit(pkt *netsim.Packet) {
	pkt.BarrierBE = h.tsFloor()
	pkt.BarrierC = h.commitAdvertise()
	h.lastUplinkSend = h.wire.Now()
	h.Stats.PktsSent++
	h.wire.Send(pkt)
}

// tsFloor is the host's best-effort barrier: no future message from this
// host will carry a timestamp below it. Doorbell-held messages are
// already timestamped but not yet on the wire, so while any connection
// holds a partial frame the floor is clamped below the oldest held
// timestamp — otherwise a beacon during the hold would break the barrier
// promise and the held messages would arrive "late" and be dropped.
func (h *Host) tsFloor() sim.Time {
	t := h.wire.Now()
	if h.lastTS > t {
		t = h.lastTS
	}
	if h.heldFloor > 0 && h.heldFloor-1 < t {
		t = h.heldFloor - 1
	}
	return t
}

// commitFloor is the largest T such that every reliable message from this
// host with timestamp <= T has been fully ACKed (§5.1).
func (h *Host) commitFloor() sim.Time {
	if len(h.outstanding) > 0 {
		return h.outstanding[0].ts - 1
	}
	return h.tsFloor()
}

// commitAdvertise returns the monotone commit floor and records it so that
// timestamp assignment stays strictly above it.
func (h *Host) commitAdvertise() sim.Time {
	if f := h.commitFloor(); f > h.advertisedC {
		h.advertisedC = f
	}
	return h.advertisedC
}

// nextTS assigns the timestamp for a scattering at egress time: the host
// clock, forced strictly increasing and strictly above the advertised
// commit floor (a receiver holding commit barrier T deliver everything
// <= T, so new messages must exceed T).
func (h *Host) nextTS() sim.Time {
	ts := h.wire.Now()
	if ts <= h.lastTS {
		ts = h.lastTS + 1
	}
	if ts <= h.advertisedC {
		ts = h.advertisedC + 1
	}
	h.lastTS = ts
	return ts
}

// Proc is one 1Pipe process endpoint (Table 1's API surface).
type Proc struct {
	ID   netsim.ProcID
	host *Host

	// OnDeliver receives messages in (timestamp, sender) total order.
	OnDeliver func(Delivery)
	// OnDeliverBatch, if set, takes precedence over OnDeliver and receives
	// contiguous below-barrier runs in one call — the delivery fast path.
	// The slice is reused by the runtime after the callback returns;
	// receivers that keep deliveries must copy them out.
	OnDeliverBatch func([]Delivery)
	// OnSendFail is the send-failure callback of Table 1.
	OnSendFail func(SendFailure)
	// OnProcFail is the process-failure callback of Table 1.
	OnProcFail func(proc netsim.ProcID, ts sim.Time)
	// OnRaw receives unordered raw RPCs sent with SendRaw.
	OnRaw func(src netsim.ProcID, data any)

	// conns holds the host slab position of the send side of each pair by
	// destination ID, rconns that of the receive side by source ID; 0 until
	// the pair is first met.
	conns  []uint32
	rconns []uint32
}

// SendRaw transmits an unordered, unacknowledged message outside the 1Pipe
// total order — for RPC responses and other traffic that does not need
// ordering. Under loss it simply vanishes; callers needing reliability use
// their own timeouts.
func (p *Proc) SendRaw(dst netsim.ProcID, data any, size int) {
	if size <= 0 {
		size = 64
	}
	pkt := p.host.pool.Get()
	pkt.Kind, pkt.Src, pkt.Dst = netsim.KindCtrl, p.ID, dst
	pkt.Payload, pkt.Size = data, size+netsim.HeaderBytes
	p.host.emit(pkt)
}

// AddProc registers a process on this host.
func (h *Host) AddProc(id netsim.ProcID) *Proc {
	if !validProc(id) {
		panic(fmt.Sprintf("core: process ID %d outside [0, %d)", id, MaxProcs))
	}
	p := &Proc{ID: id, host: h}
	if !h.hasRepr {
		h.reprProc, h.hasRepr, h.procBase = id, true, id
	}
	if id < h.procBase {
		h.procs = append(make([]*Proc, h.procBase-id), h.procs...)
		h.procBase = id
	}
	h.procs = grow(h.procs, int(id-h.procBase))
	h.procs[id-h.procBase] = p
	return p
}

// proc returns the local process id, or nil.
func (h *Host) proc(id netsim.ProcID) *Proc {
	if i := uint(id - h.procBase); i < uint(len(h.procs)) {
		return h.procs[i]
	}
	return nil
}

// eachPair calls fc with the send side and fr with the receive side (nil:
// skip) of every pair met, local process by process and peer by peer in ID
// order — the deterministic order every walk with observable side effects
// must use. Pairs met during the walk are not visited.
func (h *Host) eachPair(fc func(*conn), fr func(*rconn)) {
	for _, p := range h.procs {
		if p == nil {
			continue
		}
		for _, i := range p.conns {
			if i != 0 && fc != nil {
				fc(h.conns.at(i))
			}
		}
		for _, i := range p.rconns {
			if i != 0 && fr != nil {
				fr(h.rconns.at(i))
			}
		}
	}
}

// grow extends s with zero values, if it is shorter, so that s[i] exists; a
// new array has a quarter more room, not double, as IDs are met in any
// order.
func grow[E any](s []E, i int) []E {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	t := make([]E, i+1, max(i+1, cap(s)+cap(s)/4))
	copy(t, s)
	return t
}

// Timestamp returns the host's current 1Pipe timestamp
// (onepipe_get_timestamp).
func (p *Proc) Timestamp() sim.Time { return p.host.wire.Now() }

// Send issues a best-effort scattering (onepipe_unreliable_send): all
// messages share one timestamp; lost messages are reported through
// OnSendFail, never retransmitted. Every send entry point copies msgs into
// the scattering, so the caller may reuse the slice once it returns.
func (p *Proc) Send(msgs []Message) error {
	return p.host.send(p, msgs, SendOptions{})
}

// SendReliable issues a reliable scattering (onepipe_reliable_send):
// delivery is guaranteed via 2PC unless a participant fails, in which case
// the whole scattering is recalled (restricted failure atomicity).
func (p *Proc) SendReliable(msgs []Message) error {
	return p.host.send(p, msgs, SendOptions{Reliable: true})
}

// SendOpts issues a scattering with explicit options — the unified send
// entry point behind the public API's Send(msgs, opts...).
func (p *Proc) SendOpts(msgs []Message, o SendOptions) error {
	return p.host.send(p, msgs, o)
}

// reportStuck escalates a stalled (dst, ts) through OnStuck exactly once:
// every further exhaustion of the same stall — data retransmissions on a
// later RTO, or the recall path stalling on the same scattering — is
// counted by the first report.
func (h *Host) reportStuck(src, dst netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: dst, ts: ts}
	if h.stuckReported[rk] {
		return
	}
	h.stuckReported[rk] = true
	h.Stats.StuckReports++
	if h.OnStuck != nil {
		h.OnStuck(src, dst, ts)
	}
}

func (h *Host) send(p *Proc, msgs []Message, o SendOptions) error {
	if len(msgs) == 0 {
		return ErrNoMessages
	}
	if h.stopped {
		return fmt.Errorf("onepipe: host %d stopped: %w", h.ID, ErrClosed)
	}
	if h.draining {
		return fmt.Errorf("onepipe: host %d draining: %w", h.ID, ErrClosed)
	}
	if len(h.waitQ) >= sendBufCap {
		return ErrSendBufferFull
	}
	// Checked before newScattering meets a pair: a destination indexes the
	// sender's pair table, and processes known failed cannot be sent to.
	for _, m := range msgs {
		if !validProc(m.Dst) {
			return fmt.Errorf("onepipe: destination %d: %w", m.Dst, ErrBadDst)
		}
		if _, dead := h.failedPeers[m.Dst]; dead {
			return fmt.Errorf("onepipe: destination %d failed", m.Dst)
		}
	}
	s := newScattering(p, msgs, o.Reliable, h.Cfg.MTU)
	s.conflict = o.ConflictKey
	if win := h.batchWindow(o); win > 0 && s.totalPkts == len(s.msgs) &&
		(o.Reliable || !h.Cfg.DisableBEAck) {
		// Single-fragment messages with batching on: fragments may
		// coalesce into multi-message frames on their connections.
		s.batch = true
		s.batchWin = win
	}
	if h.Obs.On() {
		s.submitAt = h.wire.Now()
	}
	// Backpressure: refuse to grow a destination queue past sendQueueCap.
	// Checked before credits are acquired, so a refused send leaves no
	// state behind.
	for i := range s.credits {
		cr := &s.credits[i]
		w, queued := cr.conn.work, 0
		if w != nil {
			queued = w.sendQ.len()
		}
		if queued+cr.needed > sendQueueCap {
			h.Stats.Backpressure++
			retry := h.wire.Now() + h.Cfg.RTO
			if w != nil && w.holdIdx != 0 && w.doorbell.isArmed() {
				retry = h.wire.Now() + h.Cfg.BatchWindow
			}
			h.scats.drop(s)
			return &BackpressureError{Dst: cr.conn.key.dst, RetryAt: retry}
		}
	}
	h.tryAcquire(s)
	if s.fullyReserved() {
		h.launch(s)
	} else {
		h.waitQ = append(h.waitQ, s)
	}
	return nil
}

// batchWindow resolves the effective doorbell window for one send.
func (h *Host) batchWindow(o SendOptions) sim.Time {
	if o.NoBatch {
		return 0
	}
	if o.BatchWindow > 0 {
		return o.BatchWindow
	}
	return h.Cfg.BatchWindow
}
