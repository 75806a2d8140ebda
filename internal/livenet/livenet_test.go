package livenet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

func TestLiveDelivery(t *testing.T) {
	n := New(DefaultConfig(4, 1))
	defer n.Stop()
	var mu sync.Mutex
	var got []any
	n.Do(func() {
		n.Proc(1).OnDeliver = func(d core.Delivery) {
			mu.Lock()
			got = append(got, d.Data)
			mu.Unlock()
		}
	})
	if err := n.SendOpts(0, []core.Message{{Dst: 1, Data: "live", Size: 64}}, core.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := len(got) == 1
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "live" {
		t.Fatalf("got %v", got)
	}
}

func TestLiveTotalOrder(t *testing.T) {
	n := New(DefaultConfig(4, 1))
	defer n.Stop()
	var mu sync.Mutex
	logs := make([][]sim.Time, 4)
	n.Do(func() {
		for i := 0; i < 4; i++ {
			i := i
			n.Proc(i).OnDeliver = func(d core.Delivery) {
				mu.Lock()
				logs[i] = append(logs[i], d.TS)
				mu.Unlock()
			}
		}
	})
	// Concurrent senders from multiple goroutines.
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				var msgs []core.Message
				for q := 0; q < 4; q++ {
					if q != p {
						msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Size: 64})
					}
				}
				n.SendOpts(p, msgs, core.SendOptions{})
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for i, log := range logs {
		total += len(log)
		for j := 1; j < len(log); j++ {
			if log[j] < log[j-1] {
				t.Fatalf("proc %d delivered out of order at %d", i, j)
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestLiveReliable(t *testing.T) {
	n := New(DefaultConfig(3, 1))
	defer n.Stop()
	var mu sync.Mutex
	delivered := 0
	n.Do(func() {
		for i := 1; i < 3; i++ {
			n.Proc(i).OnDeliver = func(d core.Delivery) {
				mu.Lock()
				delivered++
				mu.Unlock()
			}
		}
	})
	n.SendOpts(0, []core.Message{{Dst: 1, Size: 64}, {Dst: 2, Size: 64}}, core.SendOptions{Reliable: true})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := delivered == 2
		mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("reliable scattering delivered %d of 2", delivered)
}
