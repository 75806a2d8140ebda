package wire

import (
	"encoding/binary"
	"errors"
	"testing"

	"onepipe/internal/netsim"
)

// ackPacket builds the coalesced ACK core's flushAcks emits for n entries.
func ackPacket(n int) *netsim.Packet {
	b := &netsim.AckBatch{}
	for i := 0; i < n; i++ {
		b.PSNs = append(b.PSNs, 1000+uint32(i)*3)
		b.ECN = append(b.ECN, i%3 == 1)
	}
	return &netsim.Packet{
		Kind: netsim.KindAck, Src: 9, Dst: 3, PSN: b.PSNs[0], Reliable: true,
		BarrierBE: 123456000, BarrierC: 123455000,
		Payload: b, Size: netsim.HeaderBytes + 5*n,
	}
}

// TestAckBatchRoundTrip: every entry of a coalesced ACK — not only the PSN
// the header repeats — survives AppendEncode → DecodeInto → ParseAckBatch,
// and the body is the 5 bytes per entry the simulator charges.
func TestAckBatchRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 32} {
		pkt := ackPacket(n)
		want := pkt.Payload.(*netsim.AckBatch)
		buf := AppendEncode(nil, pkt, nil)
		if got := len(buf) - HeaderLen - ackHeadLen; got != 5*n {
			t.Fatalf("n=%d: %d body bytes after the count, want %d", n, got, 5*n)
		}
		var back netsim.Packet
		body, err := DecodeInto(&back, buf, pkt.BarrierBE)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if back.Kind != netsim.KindAck || back.PSN != want.PSNs[0] || !back.Reliable || back.Src != 9 || back.Dst != 3 {
			t.Fatalf("n=%d: header %+v", n, back)
		}
		got, err := ParseAckBatch(body)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got.PSNs) != n || len(got.ECN) != n {
			t.Fatalf("n=%d: parsed %d PSNs, %d ECN marks", n, len(got.PSNs), len(got.ECN))
		}
		for i := range want.PSNs {
			if got.PSNs[i] != want.PSNs[i] || got.ECN[i] != want.ECN[i] {
				t.Fatalf("n=%d entry %d: (%d, %v), want (%d, %v)", n, i, got.PSNs[i], got.ECN[i], want.PSNs[i], want.ECN[i])
			}
		}
		// A forwarder re-encodes with the body as opaque bytes.
		if re := AppendEncode(nil, &back, body); string(re) != string(buf) {
			t.Fatalf("n=%d: opaque re-encode differs", n)
		}
		netsim.PutAckBatch(got)
	}
	// An ACK without a batch (AckFlush = 0) has no body.
	single := &netsim.Packet{Kind: netsim.KindAck, PSN: 5}
	if buf := AppendEncode(nil, single, nil); len(buf) != HeaderLen {
		t.Fatalf("uncoalesced ACK encodes to %d bytes, want the bare header", len(buf))
	}
}

func TestAckBatchRejectsMalformed(t *testing.T) {
	good := AppendEncode(nil, ackPacket(3), nil)[HeaderLen:]
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"one byte", good[:1], ErrShort},
		{"zero entries", []byte{0, 0}, ErrBadAckBatch},
		{"truncated entry", good[:len(good)-1], ErrBadAckBatch},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrBadAckBatch},
		{"count above the body", mut(func(b []byte) []byte { binary.BigEndian.PutUint16(b, 0xffff); return b }), ErrBadAckBatch},
		{"count below the body", mut(func(b []byte) []byte { binary.BigEndian.PutUint16(b, 2); return b }), ErrBadAckBatch},
		{"ECN byte 2", mut(func(b []byte) []byte { b[ackHeadLen+4] = 2; return b }), ErrBadAckBatch},
	}
	for _, c := range cases {
		if b, err := ParseAckBatch(c.body); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v (batch %v), want %v", c.name, err, b, c.want)
		}
	}
}
