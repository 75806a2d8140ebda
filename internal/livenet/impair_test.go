package livenet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// TestLiveReliableUnderImpairment exercises the composable impairment path
// on the in-process fabric: Gilbert-Elliott burst loss plus jitter and an
// extra-delay class at the switch must not break exactly-once delivery or
// timestamp order for reliable scatterings.
func TestLiveReliableUnderImpairment(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.Seed = 11
	cfg.Impair = &netsim.Impairment{
		GE:         netsim.BurstLoss(0.15, 3),
		Jitter:     sim.Time(50 * time.Microsecond),
		ExtraDelay: sim.Time(100 * time.Microsecond),
	}
	n := New(cfg)
	defer n.Stop()

	var mu sync.Mutex
	counts := make(map[byte]int)
	logs := make([][]sim.Time, 3)
	n.Do(func() {
		for i := 1; i < 3; i++ {
			i := i
			n.Proc(i).OnDeliver = func(d core.Delivery) {
				mu.Lock()
				counts[d.Data.([]byte)[0]]++
				logs[i] = append(logs[i], d.TS)
				mu.Unlock()
			}
		}
	})

	const rounds = 12
	for k := 0; k < rounds; k++ {
		if err := n.SendOpts(0, []core.Message{
			{Dst: 1, Data: []byte{byte(k)}, Size: 1},
			{Dst: 2, Data: []byte{byte(k)}, Size: 1},
		}, core.SendOptions{Reliable: true}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := len(counts) == rounds
		if done {
			for _, c := range counts {
				if c != 2 {
					done = false
				}
			}
		}
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for k := 0; k < rounds; k++ {
		if counts[byte(k)] != 2 {
			t.Fatalf("round %d delivered %d of 2 members under impairment", k, counts[byte(k)])
		}
	}
	for i, log := range logs {
		for j := 1; j < len(log); j++ {
			if log[j] < log[j-1] {
				t.Fatalf("proc %d delivered out of timestamp order under impairment", i)
			}
		}
	}
}
