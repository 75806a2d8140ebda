package udpnet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
)

// waitFor blocks on c's transport until cond holds, failing after timeout.
func waitFor(t *testing.T, c *Cluster, timeout time.Duration, cond func() bool) {
	t.Helper()
	if !c.tr.wait(timeout, cond) {
		t.Fatal("condition not reached in time")
	}
}

func TestUDPDelivery(t *testing.T) {
	c, err := Start(DefaultConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var got []string
	c.Proc(1).OnDeliver(func(d core.Delivery) {
		mu.Lock()
		got = append(got, string(d.Data.([]byte)))
		mu.Unlock()
	})
	if err := c.Proc(0).SendOpts([]core.Message{{Dst: 1, Data: []byte("over-udp"), Size: 8}}, core.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != "over-udp" {
		t.Fatalf("got %q", got[0])
	}
}

func TestUDPTotalOrderAcrossSockets(t *testing.T) {
	c, err := Start(DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The payload names the scattering (sender, round) for the oracle.
	var mu sync.Mutex
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, 4)}
	for i := 0; i < 4; i++ {
		i := i
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			id := d.Data.([]byte)
			mu.Lock()
			log.Deliveries[i] = append(log.Deliveries[i], oracle.Delivery{TS: d.TS, Src: d.Src, Reliable: d.Reliable,
				ID: oracle.ID{Src: netsim.ProcID(id[0]), Seq: int32(id[1])}})
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(p), Seq: int32(k)}, Src: netsim.ProcID(p)}
				var msgs []core.Message
				for q := 0; q < 4; q++ {
					if q != p {
						msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Data: []byte{byte(p), byte(k)}, Size: 2})
						s.Dsts = append(s.Dsts, netsim.ProcID(q))
					}
				}
				s.Refused = c.Proc(p).SendOpts(msgs, core.SendOptions{}) != nil
				mu.Lock()
				log.Sends = append(log.Sends, s)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	if total := log.TotalDeliveries(); total < 100 {
		t.Fatalf("only %d deliveries", total)
	}
}

func TestUDPReliableUnderInjectedLoss(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	// High enough that a run with zero drops is implausible (the switch
	// RNG is time-seeded): ~100 packets at 20% loss.
	cfg.Impair = &netsim.Impairment{Loss: 0.2}
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	delivered := make(map[byte]int)
	for i := 1; i < 3; i++ {
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			mu.Lock()
			delivered[d.Data.([]byte)[0]]++
			mu.Unlock()
		})
	}
	const rounds = 20
	for k := 0; k < rounds; k++ {
		err := c.Proc(0).SendOpts([]core.Message{
			{Dst: 1, Data: []byte{byte(k)}, Size: 1},
			{Dst: 2, Data: []byte{byte(k)}, Size: 1},
		}, core.SendOptions{Reliable: true})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	waitFor(t, c, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(delivered) != rounds {
			return false
		}
		for _, n := range delivered {
			if n != 2 {
				return false
			}
		}
		return true
	})
	if c.Switch.Stats().Dropped == 0 {
		t.Fatal("loss injection never dropped a packet")
	}
}

func TestUDPScatteringSharedTimestamp(t *testing.T) {
	c, err := Start(DefaultConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	ts := make(map[int]sim.Time)
	for i := 1; i < 3; i++ {
		i := i
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			mu.Lock()
			ts[i] = d.TS
			mu.Unlock()
		})
	}
	c.Proc(0).SendOpts([]core.Message{
		{Dst: 1, Data: []byte("a"), Size: 1},
		{Dst: 2, Data: []byte("b"), Size: 1},
	}, core.SendOptions{Reliable: true})
	waitFor(t, c, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ts) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if ts[1] != ts[2] {
		t.Fatalf("scattering timestamps differ over UDP: %v vs %v", ts[1], ts[2])
	}
}

// TestUDPBurstNoFalseSendFail: a burst makes the receiver coalesce its ACKs,
// and every entry of a coalesced ACK has to cross the socket. When only the
// header's PSN did, the sender saw one packet in each batch acknowledged and
// reported the rest — all delivered — through OnSendFail.
func TestUDPBurstNoFalseSendFail(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 300
	var mu sync.Mutex
	delivered, failed := 0, 0
	c.Proc(1).OnDeliverBatch(func(ds []core.Delivery) {
		mu.Lock()
		delivered += len(ds)
		mu.Unlock()
	})
	c.Proc(0).OnSendFail(func(core.SendFailure) {
		mu.Lock()
		failed++
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		msg := []core.Message{{Dst: 1, Data: make([]byte, 64), Size: 64}}
		if err := c.Proc(0).SendOpts(msg, core.SendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, c, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered == n
	})
	// A send failure is the absence of an ACK for SendFailTimeout (100 beacon
	// intervals here): give every timer that is going to fire the time to.
	time.Sleep(150 * cfg.BeaconInterval)
	mu.Lock()
	defer mu.Unlock()
	if failed != 0 {
		t.Fatalf("%d of %d delivered messages reported through OnSendFail", failed, n)
	}
	hn := c.snapshot()[0]
	hn.mu.Lock()
	defer hn.mu.Unlock()
	if retx := hn.core.Stats.PktsRetx; retx != 0 {
		t.Fatalf("PktsRetx = %d on a lossless loopback", retx)
	}
}
