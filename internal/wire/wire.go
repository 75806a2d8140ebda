// Package wire defines the binary packet format of 1Pipe as described in
// §6.1: every packet carries a 24-byte 1Pipe header — three 48-bit
// timestamps (message, best-effort barrier, commit barrier), a 32-bit PSN,
// an opcode, flags, and addressing — followed by the payload.
//
// Timestamps on the wire are 48-bit nanosecond counters that wrap about
// every 78 hours; comparisons use PAWS-style serial-number arithmetic
// (RFC 1323/7323), so ordering remains correct across the wrap as long as
// two live timestamps are within half the wrap period of each other.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// TSBits is the wire width of a 1Pipe timestamp.
const TSBits = 48

// tsMask keeps the low 48 bits.
const tsMask = (uint64(1) << TSBits) - 1

// halfRange is half the timestamp space, the PAWS comparison horizon
// (~39 hours of nanoseconds).
const halfRange = uint64(1) << (TSBits - 1)

// WrapTS folds a full simulator timestamp onto the 48-bit wire space.
func WrapTS(t sim.Time) uint64 { return uint64(t) & tsMask }

// TSLess compares two 48-bit wire timestamps with serial-number
// arithmetic: a < b iff the forward distance from a to b is less than half
// the space (PAWS, §6.1).
func TSLess(a, b uint64) bool {
	if a == b {
		return false
	}
	return (b-a)&tsMask < halfRange
}

// TSLessEq is TSLess or equal.
func TSLessEq(a, b uint64) bool { return a == b || TSLess(a, b) }

// UnwrapTS reconstructs a full timestamp from a 48-bit wire value, given a
// reference timestamp known to be within half the wrap range of the true
// value (the receiver's clock).
func UnwrapTS(wire uint64, ref sim.Time) sim.Time {
	refWire := uint64(ref) & tsMask
	base := uint64(ref) &^ tsMask
	diff := (wire - refWire) & tsMask
	if diff < halfRange {
		return sim.Time(base|refWire) + sim.Time(diff)
	}
	// wire is behind ref (or ref wrapped past it).
	back := (refWire - wire) & tsMask
	return sim.Time(base|refWire) - sim.Time(back)
}

// HeaderLen is the encoded header size: 3×6 (timestamps) + 4 (PSN) +
// 2 (FragIdx) + 1 (opcode) + 1 (flags) + 4+4 (src/dst) + 4 (conflict key)
// + 4 (payload len) = 42 bytes. (§6.1 counts the 24 bytes 1Pipe adds on
// top of UD addressing; this format carries addressing, the conflict key
// and length explicitly since it runs over plain UDP.)
const HeaderLen = 42

// Flag bits.
const (
	flagEndOfMsg = 1 << 0
	flagReliable = 1 << 1
	flagECN      = 1 << 2
	flagFrame    = 1 << 3
)

// frameHeadLen is the fixed prefix of a frame payload: a 16-bit entry count
// and a 16-bit PSN span.
const frameHeadLen = 4

// wireEntryLen is the per-entry framing on the wire: the simulator's
// FrameEntryBytes (48-bit TS, 16-bit PSN offset, 32-bit payload length)
// plus the 32-bit conflict key, which is deliberately kept out of the
// simulator constant (see netsim.FrameEntryBytes).
const wireEntryLen = netsim.FrameEntryBytes + 4

// ErrShort reports a truncated packet.
var ErrShort = errors.New("wire: short packet")

// ErrBadOpcode reports an unknown opcode.
var ErrBadOpcode = errors.New("wire: bad opcode")

// ErrBadFrame reports a structurally invalid multi-message frame payload.
var ErrBadFrame = errors.New("wire: bad frame payload")

// ErrBadAckBatch reports a coalesced-ACK body whose length disagrees with
// its entry count, that declares no entry, or whose ECN byte is not 0 or 1.
var ErrBadAckBatch = errors.New("wire: bad ack batch payload")

// A coalesced-ACK body is a 16-bit entry count followed by one 5-byte entry
// per acknowledged packet — 32-bit PSN, one ECN-echo byte — the 5 bytes per
// entry the simulator charges.
const (
	ackHeadLen  = 2
	ackEntryLen = 5
	// maxAckEntries is what the count field (and no datagram) can hold; a
	// longer batch is cut there and its tail left to retransmission.
	maxAckEntries = 1<<16 - 1
)

func put48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

func get48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// Encode serializes a packet header plus payload bytes. The Payload field
// of the in-memory packet is not serialized (it holds Go values in the
// simulator); payload carries the application bytes for the UDP transport.
func Encode(pkt *netsim.Packet, payload []byte) []byte {
	return AppendEncode(nil, pkt, payload)
}

// AppendEncode serializes pkt into dst, reusing dst's capacity, and returns
// the extended slice. With a dst of capacity >= HeaderLen+len(payload) —
// typically a pooled send buffer sliced to dst[:0] — it does not allocate.
//
// A Frame packet with a nil payload serializes its *netsim.Frame Payload as
// a length-prefixed multi-payload frame body (entry Data values that are
// not []byte encode as zero-length payloads). A Frame packet with explicit
// payload bytes — a forwarder restamping barriers — passes them through
// opaquely. Likewise a KindAck packet with a nil payload serializes an
// *netsim.AckBatch Payload as a coalesced-ACK body (ParseAckBatch).
func AppendEncode(dst []byte, pkt *netsim.Packet, payload []byte) []byte {
	var frame *netsim.Frame
	var acks *netsim.AckBatch
	plen := len(payload)
	if payload == nil {
		if pkt.Frame {
			frame, _ = pkt.Payload.(*netsim.Frame)
			plen = framePayloadLen(frame)
		} else if pkt.Kind == netsim.KindAck {
			if acks, _ = pkt.Payload.(*netsim.AckBatch); acks != nil {
				plen = ackHeadLen + ackEntryLen*ackEntries(acks)
			}
		}
	}
	off := len(dst)
	n := off + HeaderLen + plen
	if cap(dst) < n {
		grown := make([]byte, n)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:n]
	}
	buf := dst[off:]
	put48(buf[0:], WrapTS(pkt.MsgTS))
	put48(buf[6:], WrapTS(pkt.BarrierBE))
	put48(buf[12:], WrapTS(pkt.BarrierC))
	binary.BigEndian.PutUint32(buf[18:], pkt.PSN)
	binary.BigEndian.PutUint16(buf[22:], pkt.FragIdx)
	buf[24] = byte(pkt.Kind)
	var flags byte
	if pkt.EndOfMsg {
		flags |= flagEndOfMsg
	}
	if pkt.Reliable {
		flags |= flagReliable
	}
	if pkt.ECN {
		flags |= flagECN
	}
	if pkt.Frame {
		flags |= flagFrame
	}
	buf[25] = flags
	binary.BigEndian.PutUint32(buf[26:], uint32(pkt.Src))
	binary.BigEndian.PutUint32(buf[30:], uint32(pkt.Dst))
	binary.BigEndian.PutUint32(buf[34:], pkt.ConflictKey)
	binary.BigEndian.PutUint32(buf[38:], uint32(plen))
	switch {
	case frame != nil:
		putFramePayload(buf[HeaderLen:], frame)
	case acks != nil:
		putAckBatch(buf[HeaderLen:], acks)
	default:
		copy(buf[HeaderLen:], payload)
	}
	return dst
}

func ackEntries(b *netsim.AckBatch) int {
	if len(b.PSNs) > maxAckEntries {
		return maxAckEntries
	}
	return len(b.PSNs)
}

func putAckBatch(b []byte, acks *netsim.AckBatch) {
	n := ackEntries(acks)
	binary.BigEndian.PutUint16(b, uint16(n))
	off := ackHeadLen
	for i, psn := range acks.PSNs[:n] {
		binary.BigEndian.PutUint32(b[off:], psn)
		b[off+4] = 0
		if acks.ECN[i] {
			b[off+4] = 1
		}
		off += ackEntryLen
	}
}

// ParseAckBatch decodes a coalesced-ACK body (the payload bytes of a KindAck
// packet) into a pooled *netsim.AckBatch; nothing aliases payload. The body
// must be exactly as long as its entry count says, so a forged count cannot
// make the parser allocate more than the datagram carried.
func ParseAckBatch(payload []byte) (*netsim.AckBatch, error) {
	if len(payload) < ackHeadLen {
		return nil, ErrShort
	}
	n := int(binary.BigEndian.Uint16(payload))
	if n == 0 || len(payload) != ackHeadLen+ackEntryLen*n {
		return nil, ErrBadAckBatch
	}
	b := netsim.GetAckBatch()
	for off := ackHeadLen; off < len(payload); off += ackEntryLen {
		ecn := payload[off+4]
		if ecn > 1 {
			netsim.PutAckBatch(b)
			return nil, ErrBadAckBatch
		}
		b.PSNs = append(b.PSNs, binary.BigEndian.Uint32(payload[off:]))
		b.ECN = append(b.ECN, ecn == 1)
	}
	return b, nil
}

// framePayloadLen is the encoded size of a frame body.
func framePayloadLen(f *netsim.Frame) int {
	if f == nil {
		return 0
	}
	n := frameHeadLen
	for i := range f.Entries {
		n += wireEntryLen
		if data, ok := f.Entries[i].Data.([]byte); ok {
			n += len(data)
		}
	}
	return n
}

func putFramePayload(b []byte, f *netsim.Frame) {
	if f == nil {
		return
	}
	binary.BigEndian.PutUint16(b[0:], uint16(len(f.Entries)))
	binary.BigEndian.PutUint16(b[2:], f.Span)
	off := frameHeadLen
	for i := range f.Entries {
		e := &f.Entries[i]
		data, _ := e.Data.([]byte)
		put48(b[off:], WrapTS(e.TS))
		binary.BigEndian.PutUint16(b[off+6:], e.PSNOff)
		binary.BigEndian.PutUint32(b[off+8:], e.ConflictKey)
		binary.BigEndian.PutUint32(b[off+12:], uint32(len(data)))
		copy(b[off+wireEntryLen:], data)
		off += wireEntryLen + len(data)
	}
}

// ParseFramePayload decodes a frame body (the payload bytes of a packet
// whose Frame flag is set) into a pooled *netsim.Frame. Entry Data slices
// alias payload; copy payload first if it will be reused. The frame is
// validated structurally: at least one entry, ascending entry timestamps,
// and a PSN span covering every entry.
func ParseFramePayload(payload []byte, ref sim.Time) (*netsim.Frame, error) {
	if len(payload) < frameHeadLen {
		return nil, ErrShort
	}
	count := int(binary.BigEndian.Uint16(payload[0:]))
	span := binary.BigEndian.Uint16(payload[2:])
	if count == 0 || int(span) < count {
		return nil, ErrBadFrame
	}
	f := netsim.GetFrame()
	off := frameHeadLen
	var prevTS sim.Time
	prevOff := -1
	for i := 0; i < count; i++ {
		if len(payload)-off < wireEntryLen {
			netsim.PutFrame(f)
			return nil, ErrShort
		}
		ts := UnwrapTS(get48(payload[off:]), ref)
		psnOff := binary.BigEndian.Uint16(payload[off+6:])
		ckey := binary.BigEndian.Uint32(payload[off+8:])
		dlen := int(binary.BigEndian.Uint32(payload[off+12:]))
		off += wireEntryLen
		if dlen < 0 || dlen > len(payload)-off {
			netsim.PutFrame(f)
			return nil, ErrShort
		}
		if (i > 0 && ts < prevTS) || int(psnOff) <= prevOff || psnOff >= span {
			netsim.PutFrame(f)
			return nil, ErrBadFrame
		}
		prevTS = ts
		prevOff = int(psnOff)
		var data any
		if dlen > 0 {
			data = payload[off : off+dlen]
		}
		f.Entries = append(f.Entries, netsim.FrameEntry{TS: ts, PSNOff: psnOff, Size: dlen, ConflictKey: ckey, Data: data})
		off += dlen
	}
	f.Span = span
	return f, nil
}

// Decode parses a packet. ref anchors 48-bit timestamps back onto the full
// time line (use the receiver's current clock). The returned payload
// aliases buf.
func Decode(buf []byte, ref sim.Time) (*netsim.Packet, []byte, error) {
	pkt := &netsim.Packet{}
	payload, err := DecodeInto(pkt, buf, ref)
	if err != nil {
		return nil, nil, err
	}
	return pkt, payload, nil
}

// DecodeInto parses buf into a caller-supplied packet — typically one from
// netsim.GetPacket — without allocating. Fields not present on the wire
// (Payload, SentAt, QueueWait) are zeroed. The returned payload aliases buf.
func DecodeInto(pkt *netsim.Packet, buf []byte, ref sim.Time) ([]byte, error) {
	if len(buf) < HeaderLen {
		return nil, ErrShort
	}
	kind := netsim.Kind(buf[24])
	if kind > netsim.KindCtrl {
		return nil, fmt.Errorf("%w: %d", ErrBadOpcode, buf[24])
	}
	plen := binary.BigEndian.Uint32(buf[38:])
	if len(buf) < HeaderLen+int(plen) {
		return nil, ErrShort
	}
	flags := buf[25]
	pkt.Kind = kind
	pkt.MsgTS = UnwrapTS(get48(buf[0:]), ref)
	pkt.BarrierBE = UnwrapTS(get48(buf[6:]), ref)
	pkt.BarrierC = UnwrapTS(get48(buf[12:]), ref)
	pkt.PSN = binary.BigEndian.Uint32(buf[18:])
	pkt.FragIdx = binary.BigEndian.Uint16(buf[22:])
	pkt.EndOfMsg = flags&flagEndOfMsg != 0
	pkt.Reliable = flags&flagReliable != 0
	pkt.ECN = flags&flagECN != 0
	pkt.Frame = flags&flagFrame != 0
	pkt.Src = netsim.ProcID(binary.BigEndian.Uint32(buf[26:]))
	pkt.Dst = netsim.ProcID(binary.BigEndian.Uint32(buf[30:]))
	pkt.ConflictKey = binary.BigEndian.Uint32(buf[34:])
	pkt.Size = HeaderLen + int(plen)
	pkt.Payload = nil
	pkt.SentAt = 0
	pkt.QueueWait = 0
	return buf[HeaderLen : HeaderLen+plen], nil
}
