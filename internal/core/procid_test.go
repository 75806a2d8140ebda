package core

import (
	"errors"
	"math"
	"testing"

	"onepipe/internal/netsim"
)

// badProcIDs are process IDs no pair table may be indexed by: negative,
// the first one past the bound, and the extremes of the wire's int32.
var badProcIDs = []netsim.ProcID{-1, MaxProcs, math.MaxInt32, math.MinInt32}

// TestOutOfRangeSrcDropped: a process keeps its pairs in tables indexed by
// peer ID, and on udpnet a packet's Src is whatever a datagram says. A
// packet of any kind from a source outside [0, MaxProcs) — a data packet, a
// frame and a recall among them — is dropped: nothing panics, no table
// grows, no pair is met.
func TestOutOfRangeSrcDropped(t *testing.T) {
	cfg := DefaultConfig()
	eng, hosts, procs, _ := cablePair(cfg)
	procs[1].OnDeliver = func(d Delivery) { t.Errorf("delivered %+v", d) }
	eng.RunFor(10 * cfg.BeaconInterval)
	h := hosts[1]
	live := h.Stats.ConnsLive
	kinds := []netsim.Kind{netsim.KindData, netsim.KindAck, netsim.KindNak,
		netsim.KindRecall, netsim.KindRecallAck, netsim.KindCtrl}
	for _, src := range badProcIDs {
		for _, kind := range kinds {
			h.HandlePacket(&netsim.Packet{Kind: kind, Src: src, Dst: 1,
				MsgTS: eng.Now(), EndOfMsg: true, Size: netsim.HeaderBytes + 64})
		}
		h.HandlePacket(&netsim.Packet{Kind: netsim.KindData, Src: src, Dst: 1,
			MsgTS: eng.Now(), Frame: true, Size: netsim.HeaderBytes + 64,
			Payload: &netsim.Frame{Span: 1, Entries: []netsim.FrameEntry{{TS: eng.Now(), Size: 64}}}})
		h.ApplyRecallTombstone(src, eng.Now())
	}
	eng.RunFor(10 * cfg.BeaconInterval)
	if n := cap(procs[1].rconns); n > 2 {
		t.Errorf("receive table has room for %d sources, want at most 2", n)
	}
	if h.Stats.ConnsLive != live {
		t.Errorf("ConnsLive %d → %d: a pair was met", live, h.Stats.ConnsLive)
	}
}

// TestOutOfRangeDstRefused: a send toward a destination outside
// [0, MaxProcs) is refused with ErrBadDst before any pair is met, on both
// classes, including as one member of a wider scattering.
func TestOutOfRangeDstRefused(t *testing.T) {
	_, hosts, procs, _ := cablePair(DefaultConfig())
	for _, dst := range badProcIDs {
		for _, msgs := range [][]Message{{{Dst: dst}}, {{Dst: 1}, {Dst: dst}}} {
			if err := procs[0].Send(msgs); !errors.Is(err, ErrBadDst) {
				t.Errorf("Send to %d: %v, want ErrBadDst", dst, err)
			}
			if err := procs[0].SendReliable(msgs); !errors.Is(err, ErrBadDst) {
				t.Errorf("SendReliable to %d: %v, want ErrBadDst", dst, err)
			}
		}
	}
	if n := cap(procs[0].conns); n > 0 {
		t.Errorf("send table has room for %d destinations, want none", n)
	}
	if n := hosts[0].Stats.ConnsLive; n != 0 {
		t.Errorf("ConnsLive = %d after refused sends", n)
	}
}

// TestAddProcOutOfRangePanics: a process ID outside [0, MaxProcs) is a
// configuration error, reported at AddProc rather than at the first packet.
func TestAddProcOutOfRangePanics(t *testing.T) {
	for _, id := range badProcIDs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddProc(%d) did not panic", id)
				}
			}()
			_, hosts, _, _ := cablePair(DefaultConfig())
			hosts[0].AddProc(id)
		}()
	}
}
