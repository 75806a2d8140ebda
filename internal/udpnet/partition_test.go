package udpnet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
)

// TestUDPPartitionHealsAndDelivers smoke-tests a data-plane partition on the
// real-UDP fabric: host 2 is blackholed at the switch (beacons still flow,
// so the barrier keeps advancing), a reliable scattering spanning the cut is
// submitted, and nothing may be delivered while the cut is up — the commit
// barrier cannot pass a scattering whose member is unACKed (§5.1). Healing
// the cut inside the retransmission budget must deliver both members.
func TestUDPPartitionHealsAndDelivers(t *testing.T) {
	c, err := Start(DefaultConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	delivered := make(map[int]int)
	for i := 1; i < 3; i++ {
		i := i
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			mu.Lock()
			delivered[i]++
			mu.Unlock()
		})
	}

	c.Switch.SetBlackhole(2, true)
	if err := c.Proc(0).SendOpts([]core.Message{
		{Dst: 1, Data: []byte("x"), Size: 1},
		{Dst: 2, Data: []byte("x"), Size: 1},
	}, core.SendOptions{Reliable: true}); err != nil {
		t.Fatal(err)
	}

	// While the cut is up, the scattering must stay wholly undelivered:
	// host 2 cannot receive, and host 1's copy is gated behind a commit
	// barrier that cannot pass the unACKed member.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	early := delivered[1] + delivered[2]
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d deliveries while partitioned — atomicity hole", early)
	}

	c.Switch.SetBlackhole(2, false)
	waitFor(t, c, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered[1] == 1 && delivered[2] == 1
	})
	if c.Switch.Stats().Dropped == 0 {
		t.Fatal("blackhole never dropped a packet")
	}
}
