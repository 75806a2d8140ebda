package wire_test

import (
	"bytes"
	"testing"

	"onepipe/internal/chaos"
	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

// FuzzDecodeCaptured is FuzzDecode with a corpus harvested from a chaos run
// instead of hand-built constants: the seeds are real frames — beacons with
// live barrier state, recalls and recall ACKs from an abort, commit and NAK
// traffic under loss — so the fuzzer starts from every header shape the
// protocol actually produces. (External test package: chaos imports wire,
// so the seeding has to live outside package wire.)
func FuzzDecodeCaptured(f *testing.F) {
	for _, frame := range chaos.CaptureWirePackets(42, 4) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, payload, err := wire.Decode(data, 1<<40)
		if err != nil {
			return
		}
		re := wire.Encode(pkt, payload)
		pkt2, payload2, err2 := wire.Decode(re, 1<<40)
		if err2 != nil {
			t.Fatalf("re-decode failed: %v", err2)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatal("payload changed across round trip")
		}
		if pkt.Kind != pkt2.Kind || pkt.Src != pkt2.Src || pkt.Dst != pkt2.Dst ||
			pkt.PSN != pkt2.PSN || pkt.FragIdx != pkt2.FragIdx ||
			pkt.Reliable != pkt2.Reliable || pkt.EndOfMsg != pkt2.EndOfMsg ||
			wire.WrapTS(pkt.MsgTS) != wire.WrapTS(pkt2.MsgTS) {
			t.Fatal("header changed across round trip")
		}
	})
}

// FuzzParseFrameCaptured seeds the frame-body parser with the payload
// sections of real coalesced frames harvested from a chaos run — multi-entry
// bodies with live timestamps and PSN offsets, including spans widened by
// aborted members — then mutates from there. It must never panic, and
// accepted bodies must keep their structural invariants.
func FuzzParseFrameCaptured(f *testing.F) {
	for _, raw := range chaos.CaptureWirePackets(42, 8) {
		if len(raw) <= wire.HeaderLen || raw[25]&(1<<3) == 0 { // flags byte: frame bit
			continue
		}
		f.Add(raw[wire.HeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := wire.ParseFramePayload(body, 1<<40)
		if err != nil {
			return
		}
		if len(fr.Entries) == 0 || int(fr.Span) < len(fr.Entries) {
			t.Fatalf("accepted frame violates invariants: %d entries, span %d", len(fr.Entries), fr.Span)
		}
		prev := -1
		for i := range fr.Entries {
			if int(fr.Entries[i].PSNOff) <= prev || fr.Entries[i].PSNOff >= fr.Span {
				t.Fatalf("accepted frame has bad PSN offset at entry %d", i)
			}
			prev = int(fr.Entries[i].PSNOff)
		}
	})
}

// capturedAckBodies returns the entry bodies of the coalesced ACKs in a chaos
// capture.
func capturedAckBodies() [][]byte {
	var out [][]byte
	for _, raw := range chaos.CaptureWirePackets(42, 8) {
		if len(raw) > wire.HeaderLen && raw[24] == byte(netsim.KindAck) { // opcode byte
			out = append(out, raw[wire.HeaderLen:])
		}
	}
	return out
}

// FuzzParseAckBatch seeds the coalesced-ACK parser with the bodies real
// receivers flushed during a chaos run and mutates from there. It must never
// panic; it accepts a body only when the declared count accounts for every
// byte (so a forged count cannot size an allocation), and what it accepts
// re-encodes to the same bytes.
func FuzzParseAckBatch(f *testing.F) {
	for _, body := range capturedAckBodies() {
		f.Add(body)
	}
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := wire.ParseAckBatch(body)
		if err != nil {
			return
		}
		defer netsim.PutAckBatch(b)
		n := int(body[0])<<8 | int(body[1])
		if n == 0 || len(b.PSNs) != n || len(b.ECN) != n || len(body) != 2+5*n {
			t.Fatalf("accepted %d-byte body declaring %d entries as %d PSNs, %d ECN marks",
				len(body), n, len(b.PSNs), len(b.ECN))
		}
		re := wire.Encode(&netsim.Packet{Kind: netsim.KindAck, PSN: b.PSNs[0], Payload: b}, nil)
		if !bytes.Equal(re[wire.HeaderLen:], body) {
			t.Fatal("accepted body does not re-encode to itself")
		}
	})
}

// TestCapturedCorpusCoversKinds asserts the harvest actually contains frames
// of several distinct kinds — a capture that only ever saw data packets
// would silently gut FuzzDecodeCaptured's seed diversity. It also requires
// at least one coalesced multi-message frame and one multi-entry coalesced
// ACK, the seed material for FuzzParseFrameCaptured and FuzzParseAckBatch.
func TestCapturedCorpusCoversKinds(t *testing.T) {
	frames := chaos.CaptureWirePackets(42, 4)
	if len(frames) < 8 {
		t.Fatalf("capture produced only %d frames", len(frames))
	}
	kinds := map[byte]bool{}
	coalesced := 0
	for _, fr := range frames {
		if len(fr) >= wire.HeaderLen {
			kinds[fr[24]] = true // opcode byte of the wire header
			if fr[25]&(1<<3) != 0 {
				coalesced++
			}
		}
	}
	if len(kinds) < 4 {
		t.Fatalf("capture covers only %d packet kinds, want >=4 (data/ack/beacon/commit/recall...)", len(kinds))
	}
	if coalesced == 0 {
		t.Fatal("capture contains no coalesced frame packets")
	}
	multi := 0
	for _, body := range capturedAckBodies() {
		if len(body) > 2+5 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("capture contains no coalesced ACK with more than one entry")
	}
}
