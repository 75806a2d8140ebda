package udpnet

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

// TestSwitchRegistrationSignalsChannel: the registration wait is
// event-driven — the transport wakes it when the hello arrives — and a
// host's repeated hello from the socket it registered from is accepted
// without a drop.
func TestSwitchRegistrationSignalsChannel(t *testing.T) {
	tr := newUDPTransport()
	sw, err := newSwitch(DefaultConfig(1, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.close()
	out := stranger(t, tr)
	hello := func(src netsim.ProcID) {
		out.send(wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl, Src: src}, registerPayload), sw.Addr())
	}
	register := func(host int) {
		sw.expect(host)
		hello(netsim.ProcID(host))
		if !tr.wait(2*time.Second, func() bool { return sw.pinned(host) }) {
			t.Fatalf("registration of host %d never signalled", host)
		}
	}
	// A registration, its repeat, then a second host's hello behind them
	// on the same socket: once that one is in, the repeat was handled.
	register(0)
	hello(0)
	register(1)
	if d := sw.Stats().Dropped; d != 0 {
		t.Fatalf("same-socket re-registration dropped (Dropped=%d)", d)
	}
}

// registered counts the hosts whose address the switch has pinned.
func (s *Switch) registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

// stranger opens an endpoint that no host registered from.
func stranger(t *testing.T, tr transport) endpoint {
	t.Helper()
	ep, err := tr.listen(func(netip.AddrPort, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.close)
	return ep
}

// muteHellos is a transport on which no registration hello arrives.
type muteHellos struct{ transport }

func (m muteHellos) listen(recv func(netip.AddrPort, []byte)) (endpoint, error) {
	return m.transport.listen(func(from netip.AddrPort, b []byte) {
		if !bytes.HasSuffix(b, registerPayload) {
			recv(from, b)
		}
	})
}

// TestStartRegisterTimeout: a host whose hello never reaches the switch
// makes Start fail after RegisterTimeout, not after the 5 s default.
func TestStartRegisterTimeout(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.RegisterTimeout = 200 * time.Millisecond
	tr := newUDPTransport()
	begin := tr.now()
	c, err := start(cfg, muteHellos{tr})
	waited := time.Duration(tr.now() - begin)
	if err == nil {
		c.Close()
		t.Fatal("Start succeeded with no host registered")
	}
	if waited < cfg.RegisterTimeout || waited > 2*time.Second {
		t.Fatalf("Start gave up after %v with RegisterTimeout %v", waited, cfg.RegisterTimeout)
	}
}

// forge starts a 2-host fabric, sends raws to its switch from a stranger
// socket and waits until the switch has dropped every one. None may reach
// an application, add a host or move the aggregate to its far-future
// stamps, and afterwards each host still delivers to the other.
func forge(t *testing.T, raws ...[]byte) {
	t.Helper()
	c, err := Start(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	delivered := make(chan int, 64)
	for p := 0; p < 2; p++ {
		c.Proc(p).OnDeliver(func(core.Delivery) { delivered <- p })
	}
	out := stranger(t, c.tr)
	for _, raw := range raws {
		out.send(raw, c.Switch.Addr())
	}
	if !c.tr.wait(5*time.Second, func() bool { return c.Switch.Stats().Dropped >= uint64(len(raws)) }) {
		t.Fatalf("forged datagrams not dropped: %+v", c.Switch.Stats())
	}
	c.Switch.mu.Lock()
	be, cc := c.Switch.core.Aggregate()
	c.Switch.mu.Unlock()
	if st, n := c.Switch.Stats(), c.Switch.registered(); st.Forwarded != 0 || n != 2 || be >= 1<<40 || cc >= 1<<40 || len(delivered) != 0 {
		t.Fatalf("after forged traffic: %d forwarded, %d hosts, aggregate (%v, %v), %d delivered", st.Forwarded, n, be, cc, len(delivered))
	}
	for p := 0; p < 2; p++ {
		msg := []core.Message{{Dst: netsim.ProcID(1 - p), Data: []byte("real"), Size: 4}}
		if err := c.Proc(p).SendOpts(msg, core.SendOptions{}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-delivered:
			if got != 1-p {
				t.Fatalf("proc %d delivered proc %d's message", got, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("proc %d's message not delivered after forged traffic", p)
		}
	}
}

// TestSwitchDropsForgedSource: a host's address is pinned at its first
// hello. Datagrams claiming a registered host from another socket —
// far-future beacons for both hosts and a hello that would re-point host
// 0's downlink — are dropped and counted.
func TestSwitchDropsForgedSource(t *testing.T) {
	forge(t,
		wire.Encode(&netsim.Packet{Kind: netsim.KindBeacon, Src: 0, BarrierBE: 1 << 40, BarrierC: 1 << 40}, nil),
		wire.Encode(&netsim.Packet{Kind: netsim.KindBeacon, Src: 1, BarrierBE: 1 << 40, BarrierC: 1 << 40}, nil),
		wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl, Src: 0}, registerPayload))
}

// TestSwitchIgnoresUnregisteredSource: a datagram whose Src host never
// registered is outside input — the switch must not forward it and must not
// create barrier state for the id it claims, however many ids one sender
// invents. A hello for a host nobody is joining is outside input too: it
// must not admit a port, which would sit at the aggregate forever.
func TestSwitchIgnoresUnregisteredSource(t *testing.T) {
	var raws [][]byte
	for i := 0; i < 32; i++ {
		// A far-future barrier stamp from an id nobody admitted: if it
		// created a register it would also poison the aggregate.
		raws = append(raws, wire.Encode(&netsim.Packet{
			Kind: netsim.KindData, Src: netsim.ProcID(1000 + i), Dst: 1,
			PSN: 1, MsgTS: 1, BarrierBE: 1 << 40, BarrierC: 1 << 40, EndOfMsg: true,
		}, []byte("forged")))
	}
	for _, src := range []netsim.ProcID{7, -1} {
		raws = append(raws, wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl, Src: src}, registerPayload))
	}
	forge(t, raws...)
}
