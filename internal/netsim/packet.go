// Package netsim simulates the 1Pipe data center network: FIFO links with
// bandwidth, propagation delay, ECN marking and corruption loss; switches
// with per-input-link barrier registers executing the hierarchical
// aggregation of equation 4.1; beacon generation on idle links; and
// decentralized dead-link detection.
//
// The package deliberately separates the two planes of the paper: the data
// plane forwards packets unmodified along ECMP up-down paths, while the
// "control plane" is just the two barrier fields (best-effort and commit)
// that switches rewrite in flight.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"onepipe/internal/sim"
)

// ProcID identifies a process. Processes are numbered 0..NumProcs-1 and
// mapped onto hosts round-robin blocks of Config.ProcsPerHost.
type ProcID int32

// Kind is the packet opcode.
type Kind uint8

const (
	// KindData carries (a fragment of) an application message.
	KindData Kind = iota
	// KindAck is the end-to-end acknowledgment of a data packet.
	KindAck
	// KindNak reports an unrecoverable ordering drop or a PSN gap to the
	// sender.
	KindNak
	// KindBeacon is a hop-by-hop barrier carrier generated on idle links
	// (§4.2); it has no payload and is consumed by the next hop.
	KindBeacon
	// KindCommit is a reliable-1Pipe commit message: it carries the
	// sender's commit barrier to its neighbor switch and is consumed
	// there (§5.1).
	KindCommit
	// KindRecall asks a receiver to discard buffered messages of an
	// aborted scattering (§5.2).
	KindRecall
	// KindRecallAck acknowledges a recall.
	KindRecallAck
	// KindCtrl is controller <-> host coordination traffic.
	KindCtrl
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindNak:
		return "nak"
	case KindBeacon:
		return "beacon"
	case KindCommit:
		return "commit"
	case KindRecall:
		return "recall"
	case KindRecallAck:
		return "recallack"
	case KindCtrl:
		return "ctrl"
	}
	return "?"
}

// HeaderBytes is the 1Pipe header overhead per packet: three 48-bit
// timestamps (message, best-effort barrier, commit barrier), a PSN, an
// opcode and an end-of-message flag (§6.1).
const HeaderBytes = 24

// BeaconBytes is the wire size of a beacon packet: 1Pipe header plus
// minimal UDP/IP/Ethernet framing.
const BeaconBytes = HeaderBytes + 42

// Packet is the unit the network forwards. The simulator passes a single
// *Packet instance along the path, rewriting its barrier fields the way a
// programmable switch rewrites header fields.
type Packet struct {
	Kind     Kind
	Src, Dst ProcID

	// MsgTS is the message timestamp assigned by the sender host clock;
	// all packets of one scattering share it. Immutable in flight.
	MsgTS sim.Time
	// BarrierBE is the best-effort barrier: a lower bound on the message
	// timestamp of any future packet arriving on the same link. Rewritten
	// by every chip-mode switch.
	BarrierBE sim.Time
	// BarrierC is the commit barrier of reliable 1Pipe, aggregated from
	// KindCommit messages only.
	BarrierC sim.Time

	// Reliable marks reliable-1Pipe traffic (delivered by commit barrier
	// after 2PC) as opposed to best-effort traffic (delivered by the BE
	// barrier, never retransmitted).
	Reliable bool
	// ConflictKey is the sender-declared conflict class of the message
	// (DeliverConflictAware). 0 means declared non-conflicting: the
	// receiver may deliver the message as soon as it is locally stable,
	// outside the cross-class total order. Nonzero keys keep the full
	// barrier wait. Ignored by the other delivery modes.
	ConflictKey uint32
	// PSN is the per-(src,dst,class) packet sequence number used for loss
	// detection and defragmentation.
	PSN uint32
	// FragIdx is the fragment's index within its message, so reassembly
	// can locate the message's first PSN (PSN - FragIdx) without relying
	// on global PSN contiguity — a lost best-effort packet must not block
	// later messages.
	FragIdx uint16
	// EndOfMsg marks the final fragment of a message.
	EndOfMsg bool
	// Size is the wire size in bytes, including HeaderBytes.
	Size int
	// ECN is set by a switch when the egress queue exceeds the marking
	// threshold; DCTCP congestion control reads it from the UD header.
	ECN bool

	// Payload carries the application message by reference; the simulator
	// never inspects it. For Frame packets it holds a *Frame, for coalesced
	// ACKs an *AckBatch.
	Payload any

	// Frame marks a multi-message data frame: Payload is a *Frame whose
	// entries each carry their own message timestamp (§6.1 send batching).
	// MsgTS then holds the first (smallest) entry timestamp so barrier
	// promises keep referring to the oldest message in the packet, and PSN
	// holds the first of Frame.Span consecutive sequence numbers.
	Frame bool

	// SentAt is the true (simulation) time the packet left the sender,
	// for latency accounting.
	SentAt sim.Time
	// QueueWait accumulates the time this packet spent queued behind other
	// traffic on every link along its path. Simulator-side accounting only;
	// it is not part of the wire format and never crosses a real NIC.
	QueueWait sim.Time

	// pooled guards against double-release; see PutPacket. The
	// package-level list flips it with atomic compare-and-swap so the guard
	// stays sound when the goroutines of the real-time fabric (udpnet)
	// release packets concurrently; a fabric's Pool, used by one goroutine,
	// reads and writes it plainly. Nothing else may write it.
	pooled uint32
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d ts=%v be=%v c=%v psn=%d", p.Kind, p.Src, p.Dst, p.MsgTS, p.BarrierBE, p.BarrierC, p.PSN)
}

// FrameEntryBytes is the per-entry overhead inside a frame payload used for
// simulator byte accounting: a 48-bit message timestamp, a 16-bit PSN
// offset and a 32-bit payload length. The real wire codec
// (internal/wire) additionally carries each entry's 32-bit conflict key;
// that delta is wire-local and deliberately kept out of this constant so
// the simulator's batching decisions (and hence the chaos goldens) are
// independent of the conflict extension.
const FrameEntryBytes = 12

// FrameEntry is one message inside a multi-message frame. Entries are
// ordered by ascending TS (the sender's emission order).
type FrameEntry struct {
	// TS is the entry's message timestamp; unlike single-message packets,
	// each frame member keeps its own.
	TS sim.Time
	// PSNOff is the entry's sequence-number offset from the packet's PSN:
	// the member's own PSN is pkt.PSN + PSNOff. Offsets are strictly
	// ascending and below Span; gaps mark members aborted between
	// transmissions.
	PSNOff uint16
	// Size is the application payload size in bytes (excluding the
	// FrameEntryBytes framing overhead).
	Size int
	// ConflictKey is the member's conflict class (see Packet.ConflictKey);
	// every member of one scattering shares its scattering's key.
	ConflictKey uint32
	// Data carries the application message by reference. Over a real wire
	// it must be a []byte.
	Data any
}

// Frame is the payload of a multi-message data packet: several same-
// destination, same-class messages coalesced by the sender's doorbell queue
// into one wire frame.
type Frame struct {
	// Entries holds the member messages in ascending-TS order. Aborted
	// members are omitted but still counted in Span.
	Entries []FrameEntry
	// Span is the number of consecutive PSNs the frame covers, starting at
	// the packet's PSN. It can exceed len(Entries) when members were
	// aborted between transmissions; the receiver marks the whole span
	// received either way.
	Span uint16

	pooled bool
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns an empty Frame from the free list. Ownership follows the
// packet that carries it: PutPacket releases an attached frame.
func GetFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.pooled = false
	return f
}

// PutFrame resets f (keeping entry capacity) and returns it to the free
// list. Double release panics, mirroring PutPacket.
func PutFrame(f *Frame) {
	f.release()
	framePool.Put(f)
}

// release resets a live frame, keeping entry capacity, and marks it free.
func (f *Frame) release() {
	if f.pooled {
		panic("netsim: PutFrame called twice on the same frame")
	}
	for i := range f.Entries {
		f.Entries[i].Data = nil
	}
	f.Entries = f.Entries[:0]
	f.Span = 0
	f.pooled = true
}

// AckBatch is the payload of a coalesced ACK packet: the acknowledged PSNs
// of one (sender, class) with their echoed ECN marks, index-aligned. The
// packet's own PSN repeats PSNs[0].
type AckBatch struct {
	PSNs []uint32
	ECN  []bool

	pooled bool
}

var ackBatchPool = sync.Pool{New: func() any { return new(AckBatch) }}

// GetAckBatch returns an empty AckBatch from the free list. Ownership
// follows the packet that carries it: PutPacket releases an attached batch.
func GetAckBatch() *AckBatch {
	b := ackBatchPool.Get().(*AckBatch)
	b.pooled = false
	return b
}

// PutAckBatch empties b (keeping slice capacity) and returns it to the free
// list. Double release panics, mirroring PutPacket.
func PutAckBatch(b *AckBatch) {
	b.release()
	ackBatchPool.Put(b)
}

// release empties a live batch, keeping slice capacity, and marks it free.
func (b *AckBatch) release() {
	if b.pooled {
		panic("netsim: PutAckBatch called twice on the same batch")
	}
	b.PSNs, b.ECN = b.PSNs[:0], b.ECN[:0]
	b.pooled = true
}

// pktPool recycles Packet structs for the real-time fabric and for code
// outside any simulated fabric. See docs/performance.md for the ownership
// rules.
var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// GetPacket returns a zeroed Packet from the package-level free list.
//
// Ownership: a packet handed to a Wire.Send / Network.SendFromHost takes
// the network as owner; the terminal consumer — the switch for beacons and
// commits, the drop site for lost packets, core's receive path for
// host-delivered packets — releases it. Code that constructs packets with
// plain literals keeps working: such packets simply join a free list on
// their first release.
//
// Concurrency: this list is process-wide, and udpnet releases into it from
// several goroutines: each host's socket reader and whichever goroutine
// called Send. One goroutine owns a packet at any instant and the host lock
// publishes its fields on handoff; sync.Pool is itself concurrency-safe,
// and the atomic double-free guard below keeps the twice-released
// diagnostic sound even if two goroutines race on a buggy release. A
// simulated fabric keeps its own Pool instead.
func GetPacket() *Packet {
	p := pktPool.Get().(*Packet)
	atomic.StoreUint32(&p.pooled, 0)
	return p
}

// PutPacket resets p and returns it to the package-level free list.
// Releasing the same packet twice is an ownership bug that would silently
// alias two in-flight packets; it panics instead — the pooled flag is
// claimed with a CAS so concurrent double release from two goroutines
// panics on one of them rather than corrupting the list.
func PutPacket(p *Packet) {
	if !atomic.CompareAndSwapUint32(&p.pooled, 0, 1) {
		panic(putTwice)
	}
	switch pl := p.Payload.(type) {
	case *Frame:
		PutFrame(pl)
	case *AckBatch:
		PutAckBatch(pl)
	}
	p.reset()
	pktPool.Put(p)
}

const putTwice = "netsim: PutPacket called twice on the same packet"

// reset zeroes every field but the guard word, one by one: a whole-struct
// copy would store to the flag while a second, buggy release is comparing
// it.
func (p *Packet) reset() {
	p.Kind, p.Src, p.Dst = 0, 0, 0
	p.MsgTS, p.BarrierBE, p.BarrierC = 0, 0, 0
	p.Reliable, p.ConflictKey, p.PSN, p.FragIdx, p.EndOfMsg = false, 0, 0, 0, false
	p.Size, p.ECN, p.Payload, p.Frame = 0, false, nil, false
	p.SentAt, p.QueueWait = 0, 0
}

// Pool is a simulated fabric's free lists of packets, frames and ACK
// batches, owned by the goroutine that drives the fabric's engine: taking
// and releasing is a slice pop or push, with no lock and no atomic
// operation. It accepts any packet not already free — its own, one from
// GetPacket, a literal — with PutPacket's double-release guard, and a frame
// or batch released with its packet joins the same Pool. The lists hold at
// most the peak number of packets in flight at once. A nil *Pool is the
// package-level list, so code shared with the real-time fabric calls one
// set of methods.
type Pool struct {
	pkts    []*Packet
	frames  []*Frame
	batches []*AckBatch
	// ext holds the free lists of a layer above netsim on this fabric (see
	// Ext).
	ext any
}

// Ext returns the slot in which a layer above netsim keeps its own free
// lists for this fabric — core keeps its scatterings there — so that they
// belong to the fabric and its goroutine, not to the package. It is nil
// until that layer first fills it; a nil *Pool has no slot.
func (fp *Pool) Ext() *any {
	if fp == nil {
		return nil
	}
	return &fp.ext
}

// take pops the most recently freed element of l, or makes one.
func take[T any](l *[]*T) *T {
	n := len(*l) - 1
	if n < 0 {
		return new(T)
	}
	x := (*l)[n]
	*l = (*l)[:n]
	return x
}

// Get returns a zeroed packet.
func (fp *Pool) Get() *Packet {
	if fp == nil {
		return GetPacket()
	}
	p := take(&fp.pkts)
	p.pooled = 0
	return p
}

// Put resets p, with the frame or ACK batch it carries, and takes it back.
func (fp *Pool) Put(p *Packet) {
	if fp == nil {
		PutPacket(p)
		return
	}
	if p.pooled != 0 {
		panic(putTwice)
	}
	p.pooled = 1
	switch pl := p.Payload.(type) {
	case *Frame:
		pl.release()
		fp.frames = append(fp.frames, pl)
	case *AckBatch:
		pl.release()
		fp.batches = append(fp.batches, pl)
	}
	p.reset()
	fp.pkts = append(fp.pkts, p)
}

// Free reports how many packets the list holds.
func (fp *Pool) Free() int { return len(fp.pkts) }

// GetFrame returns an empty frame.
func (fp *Pool) GetFrame() *Frame {
	if fp == nil {
		return GetFrame()
	}
	f := take(&fp.frames)
	f.pooled = false
	return f
}

// GetAckBatch returns an empty ACK batch.
func (fp *Pool) GetAckBatch() *AckBatch {
	if fp == nil {
		return GetAckBatch()
	}
	b := take(&fp.batches)
	b.pooled = false
	return b
}

// Mode selects the in-network processing incarnation (§6.2).
type Mode uint8

const (
	// ModeChip models a programmable switching chip: barriers are
	// aggregated and rewritten on every forwarded packet with no extra
	// delay.
	ModeChip Mode = iota
	// ModeSwitchCPU models aggregation on the switch CPU: data packets
	// are forwarded unmodified; barriers propagate only in periodic
	// beacons that cost CPU processing delay at every hop.
	ModeSwitchCPU
	// ModeHostDelegate models delegating switch processing to a
	// representative end host: like ModeSwitchCPU but each hop adds the
	// switch-to-host RTT plus host processing delay.
	ModeHostDelegate
)

func (m Mode) String() string {
	switch m {
	case ModeChip:
		return "chip"
	case ModeSwitchCPU:
		return "switchcpu"
	case ModeHostDelegate:
		return "hostdelegate"
	}
	return "?"
}
