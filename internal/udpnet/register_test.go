package udpnet

import (
	"net"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

func TestSwitchRegistrationSignalsChannel(t *testing.T) {
	// Start's registration wait is event-driven: the switch must signal
	// regNotify when a new host announces itself, and must not signal for
	// a duplicate announcement.
	sw, err := newSwitch(DefaultConfig(1, 1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer sw.close()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	hello := wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl}, registerPayload)
	if _, err := conn.WriteToUDP(hello, sw.Addr()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.regNotify:
	case <-time.After(2 * time.Second):
		t.Fatal("registration never signalled")
	}
	if got := sw.registered(); got != 1 {
		t.Fatalf("registered()=%d, want 1", got)
	}

	// Re-registration from the same host refreshes the address silently.
	if _, err := conn.WriteToUDP(hello, sw.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	select {
	case <-sw.regNotify:
		t.Fatal("duplicate registration signalled")
	default:
	}
}

func TestStartRegisterTimeout(t *testing.T) {
	// With more hosts expected than will ever register, Start must give up
	// after RegisterTimeout instead of the old fixed 5s poll loop.
	cfg := DefaultConfig(1, 1)
	cfg.RegisterTimeout = 200 * time.Millisecond
	// Sabotage registration by asking for a second host that is never
	// launched: run Start's wait directly against a lone switch.
	sw, err := newSwitch(cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	sw.close()

	cfg.Hosts = 1
	begin := time.Now()
	c, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start with 1 host: %v", err)
	}
	c.Close()
	if waited := time.Since(begin); waited > 2*time.Second {
		t.Fatalf("Start took %v; event-driven wait should return almost immediately", waited)
	}
}

// TestSwitchIgnoresUnregisteredSource: a datagram whose Src host never
// registered is outside input — the switch must not forward it and must not
// create barrier state for the id it claims, however many ids one sender
// invents.
func TestSwitchIgnoresUnregisteredSource(t *testing.T) {
	c, err := Start(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	delivered := make(chan struct{}, 64)
	c.Proc(1).OnDeliver(func(core.Delivery) { delivered <- struct{}{} })

	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const forged = 32
	for i := 0; i < forged; i++ {
		// A far-future barrier stamp from an id nobody admitted: if it
		// created a register it would also poison the aggregate.
		raw := wire.Encode(&netsim.Packet{
			Kind: netsim.KindData, Src: netsim.ProcID(1000 + i), Dst: 1,
			PSN: 1, MsgTS: 1, BarrierBE: 1 << 40, BarrierC: 1 << 40, EndOfMsg: true,
		}, []byte("forged"))
		if _, err := conn.WriteToUDP(raw, c.Switch.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return c.Switch.Stats().Dropped >= forged })
	if st := c.Switch.Stats(); st.Forwarded != 0 {
		t.Fatalf("switch forwarded %d forged datagrams", st.Forwarded)
	}
	if got := c.Switch.registered(); got != 2 {
		t.Fatalf("%d registered hosts after forged traffic, want 2", got)
	}
	select {
	case <-delivered:
		t.Fatal("forged datagram reached the application")
	default:
	}

	// The fabric still works: the forged stamps moved no barrier past the
	// real hosts' clocks.
	if err := c.Proc(0).SendOpts([]core.Message{{Dst: 1, Data: []byte("real"), Size: 4}}, core.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("genuine message not delivered after forged traffic")
	}
}
