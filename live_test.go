package onepipe

import (
	"sync"
	"testing"
	"time"
)

// liveKnobs moves each LiveConfig setting away from its default: a faster
// beacon under seeded injected loss (the scattering then needs the
// retransmission path), a wider batch window, and two processes per host
// with the scattering sent unbatched. The UDP fabric must deliver under
// each.
var liveKnobs = map[string]struct {
	cfg  LiveConfig
	opts []SendOption
}{
	"lossy": {cfg: LiveConfig{Hosts: 3, ProcsPerHost: 1, BeaconInterval: 500 * time.Microsecond,
		Impair: &Impairment{Loss: 0.2}, Seed: 7}},
	"wide-window": {cfg: LiveConfig{Hosts: 3, ProcsPerHost: 1, BatchWindow: 100 * time.Microsecond}},
	"unbatched":   {cfg: LiveConfig{Hosts: 2, ProcsPerHost: 2}, opts: []SendOption{Unbatched()}},
}

func TestLiveConfigKnobs(t *testing.T) {
	for name, k := range liveKnobs {
		t.Run("udp/"+name, func(t *testing.T) {
			l, err := NewUDPCluster(k.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			scatterDelivers(t, l, k.opts...)
		})
	}
}

func TestUDPClusterDelivery(t *testing.T) {
	l, err := NewUDPCluster(LiveConfig{Hosts: 3, ProcsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scatterDelivers(t, l)
}

// scatterDelivers sends one reliable scattering, with opts, from process 0
// to processes 1 and 2 and waits for both deliveries.
func scatterDelivers(t *testing.T, l *Live, opts ...SendOption) {
	t.Helper()
	var mu sync.Mutex
	okc := 0
	for _, p := range []int{1, 2} {
		l.Process(p).OnDeliver(func(d Delivery) {
			if string(d.Data.([]byte)) == "udp" {
				mu.Lock()
				okc++
				mu.Unlock()
			}
		})
	}
	if err := l.Process(0).Send([]Message{
		{Dst: 1, Data: []byte("udp"), Size: 3},
		{Dst: 2, Data: []byte("udp"), Size: 3},
	}, append(opts, Reliable())...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := okc
		mu.Unlock()
		if n == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("scattering delivery timed out")
}
