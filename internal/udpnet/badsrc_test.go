package udpnet

import (
	"math"
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

// TestUDPBadSrcDatagram: a host's socket accepts datagrams from any
// address, and a datagram's Src is whatever its header says. Data and
// recall datagrams claiming a source outside [0, core.MaxProcs) are
// dropped: the reader goroutine survives to deliver the next real message,
// and the host meets no pair for them.
func TestUDPBadSrcDatagram(t *testing.T) {
	c, err := Start(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hn := c.snapshot()[1]
	var mu sync.Mutex
	var got []string
	c.Proc(1).OnDeliver(func(d core.Delivery) {
		mu.Lock()
		got = append(got, string(d.Data.([]byte)))
		mu.Unlock()
	})
	out := stranger(t, c.tr)
	for _, src := range []netsim.ProcID{-1, core.MaxProcs, math.MaxInt32} {
		for _, kind := range []netsim.Kind{netsim.KindData, netsim.KindRecall} {
			pkt := &netsim.Packet{Kind: kind, Src: src, Dst: 1, MsgTS: 1,
				EndOfMsg: true, Size: netsim.HeaderBytes + 3}
			out.send(wire.Encode(pkt, []byte("bad")), hn.ep.addr())
		}
	}
	if err := c.Proc(0).SendOpts([]core.Message{{Dst: 1, Data: []byte("ok"), Size: 2}}, core.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0
	})
	mu.Lock()
	if len(got) != 1 || got[0] != "ok" {
		t.Errorf("delivered %q, want [ok]", got)
	}
	mu.Unlock()
	hn.mu.Lock()
	defer hn.mu.Unlock()
	// The one real message: its receive side here, and the send side of
	// nothing.
	if n := hn.core.Stats.ConnsLive; n != 1 {
		t.Errorf("ConnsLive = %d, want 1", n)
	}
}
