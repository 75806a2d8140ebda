package wire

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/race"
	"onepipe/internal/sim"
)

func benchPacket() *netsim.Packet {
	return &netsim.Packet{
		Kind: netsim.KindData, Src: 3, Dst: 9, MsgTS: 123456789,
		BarrierBE: 123456000, BarrierC: 123455000, PSN: 77, FragIdx: 1,
		EndOfMsg: true, Reliable: true, Size: 1024,
	}
}

func BenchmarkEncode(b *testing.B) {
	pkt := benchPacket()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(pkt, payload)
	}
}

func BenchmarkAppendEncode(b *testing.B) {
	pkt := benchPacket()
	payload := make([]byte, 512)
	buf := make([]byte, 0, HeaderLen+len(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], pkt, payload)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := Encode(benchPacket(), make([]byte, 512))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf, 123456789); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	buf := Encode(benchPacket(), make([]byte, 512))
	var pkt netsim.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&pkt, buf, 123456789); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecAllocs pins the zero-allocation property of the buffer-reusing
// codec entry points that the udpnet send/receive loops depend on.
func TestCodecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	pkt := benchPacket()
	payload := make([]byte, 512)
	buf := make([]byte, 0, HeaderLen+len(payload))
	if avg := testing.AllocsPerRun(1000, func() {
		buf = AppendEncode(buf[:0], pkt, payload)
	}); avg != 0 {
		t.Errorf("AppendEncode: %v allocs/op, want 0", avg)
	}
	var dst netsim.Packet
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeInto(&dst, buf, sim.Time(123456789)); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeInto: %v allocs/op, want 0", avg)
	}
	// A 16-PSN coalesced ACK: the entries are written from, and parsed back
	// into, a pooled batch.
	ack := ackPacket(16)
	if avg := testing.AllocsPerRun(1000, func() {
		buf = AppendEncode(buf[:0], ack, nil)
	}); avg != 0 {
		t.Errorf("AppendEncode of a 16-PSN ACK: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		body, err := DecodeInto(&dst, buf, sim.Time(123456789))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseAckBatch(body)
		if err != nil || len(b.PSNs) != 16 {
			t.Fatal(err, b)
		}
		netsim.PutAckBatch(b)
	}); avg != 0 {
		t.Errorf("DecodeInto + ParseAckBatch of a 16-PSN ACK: %v allocs/op, want 0", avg)
	}
}

// TestAppendEncodeRoundTrip checks AppendEncode against Encode byte-for-byte,
// including the append-to-existing-prefix contract.
func TestAppendEncodeRoundTrip(t *testing.T) {
	pkt := benchPacket()
	payload := []byte("hello 1pipe")
	want := Encode(pkt, payload)
	prefix := []byte{0xde, 0xad}
	got := AppendEncode(append([]byte(nil), prefix...), pkt, payload)
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("appended length %d, want %d", len(got), len(prefix)+len(want))
	}
	if string(got[:2]) != string(prefix) {
		t.Fatal("prefix clobbered")
	}
	if string(got[2:]) != string(want) {
		t.Fatal("AppendEncode bytes differ from Encode")
	}
	var back netsim.Packet
	pl, err := DecodeInto(&back, got[2:], pkt.MsgTS)
	if err != nil {
		t.Fatal(err)
	}
	if string(pl) != string(payload) {
		t.Fatalf("payload %q, want %q", pl, payload)
	}
	if back.MsgTS != pkt.MsgTS || back.PSN != pkt.PSN || back.Src != pkt.Src ||
		back.Dst != pkt.Dst || back.Kind != pkt.Kind || !back.EndOfMsg || !back.Reliable {
		t.Fatalf("DecodeInto mismatch: %+v", back)
	}
}
