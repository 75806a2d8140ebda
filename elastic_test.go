package onepipe

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"onepipe/internal/oracle"
)

// TestFabricJoinDrainSim exercises the Fabric-level elastic membership API
// on the simulated cluster: a host joined mid-run sends into the same total
// order, a drained host refuses sends without tripping failure handling
// (drain-no-failure), and an incumbent's deliveries keep the delivery
// contract across both epoch changes.
func TestFabricJoinDrainSim(t *testing.T) {
	cfg := Defaults()
	cfg.WithController = true
	c := NewCluster(cfg)
	defer c.Close()

	np := c.NumProcesses()
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, 2)}
	c.Process(1).OnDeliver(func(d Delivery) { log.Deliveries[1] = append(log.Deliveries[1], oracleDelivery(d)) })
	send := func(p int) {
		t.Helper()
		s := oracle.Send{ID: oracle.ID{Src: ProcID(p), Seq: int32(len(log.Sends))}, Src: ProcID(p), Dsts: []ProcID{1}, Reliable: true}
		if err := c.Process(p).Send([]Message{{Dst: 1, Data: s.ID, Size: 64}}, Reliable()); err != nil {
			t.Fatalf("send from %d: %v", p, err)
		}
		log.Sends = append(log.Sends, s)
	}

	send(0)
	c.Run(2 * Millisecond)
	if n := log.TotalDeliveries(); n != 1 {
		t.Fatalf("warm-up delivery missing: got %d", n)
	}

	hi, err := c.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if c.NumProcesses() != np+cfg.ProcsPerHost {
		t.Fatalf("NumProcesses = %d after join, want %d", c.NumProcesses(), np+cfg.ProcsPerHost)
	}
	joined := np // ProcsPerHost=1: the new host's proc is at the tail
	send(joined)
	send(0)
	c.Run(2 * Millisecond)
	var fromJoined int
	for _, d := range log.Deliveries[1] {
		if int(d.Src) == joined {
			fromJoined++
		}
	}
	if fromJoined != 1 {
		t.Fatalf("deliveries from joined proc %d (host %d) = %d, want 1", joined, hi, fromJoined)
	}

	if err := c.Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := c.Process(2).Send([]Message{{Dst: 1, Data: "x", Size: 8}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on drained host: err = %v, want ErrClosed", err)
	}
	log.Drained = map[ProcID]oracle.Drain{2: {At: c.Now()}} // proc 2 records no deliveries
	send(0)
	c.Run(2 * Millisecond)
	for _, rec := range c.Controller().Failures {
		log.Fail(rec.Procs)
	}

	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	if n := log.TotalDeliveries(); n < 4 {
		t.Fatalf("deliveries after drain missing: got %d", n)
	}
}

// TestLiveJoinDrain exercises the same Fabric surface on the UDP fabric.
func TestLiveJoinDrain(t *testing.T) {
	l, err := NewUDPCluster(LiveConfig{Hosts: 3, ProcsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Each sender sends at most once, so the sender names the scattering.
	var mu sync.Mutex
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, 2)}
	l.Process(1).OnDeliver(func(d Delivery) {
		mu.Lock()
		log.Deliveries[1] = append(log.Deliveries[1], oracle.Delivery{TS: d.TS, Src: d.Src, ID: oracle.ID{Src: d.Src}, Reliable: true})
		mu.Unlock()
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return log.TotalDeliveries()
	}
	waitFor := func(n int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if count() >= n {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("%s timed out: %d/%d deliveries", what, count(), n)
	}

	hi, err := l.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if hi != 3 || l.NumProcesses() != 4 {
		t.Fatalf("Join = host %d, NumProcesses = %d; want 3 and 4", hi, l.NumProcesses())
	}
	if err := l.Process(3).Send([]Message{{Dst: 1, Data: []byte("joined"), Size: 8}}, Reliable()); err != nil {
		t.Fatalf("send from joined host: %v", err)
	}
	waitFor(1, "delivery from joined host")

	if err := l.Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := l.Process(2).Send([]Message{{Dst: 1, Data: []byte("x"), Size: 8}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on drained host: err = %v, want ErrClosed", err)
	}
	if err := l.Process(0).Send([]Message{{Dst: 1, Data: []byte("after"), Size: 8}}, Reliable()); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
	waitFor(2, "delivery after drain")

	mu.Lock()
	defer mu.Unlock()
	log.Sends = []oracle.Send{{ID: oracle.ID{Src: 3}, Src: 3, Dsts: []ProcID{1}, Reliable: true},
		{ID: oracle.ID{Src: 0}, Src: 0, Dsts: []ProcID{1}, Reliable: true}}
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
}

// TestUDPJoinRacingSend sends from one goroutine while the fabric grows
// three times: every send resolves its host from the list Join appends to.
func TestUDPJoinRacingSend(t *testing.T) {
	l, err := NewUDPCluster(LiveConfig{Hosts: 2, ProcsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := l.Process(0).Send([]Message{{Dst: 1, Data: []byte("x"), Size: 1}}); err != nil {
				done <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := l.Join(); err != nil {
			t.Fatalf("Join %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("send racing Join: %v", err)
	}
	if n := l.NumProcesses(); n != 5 {
		t.Fatalf("NumProcesses = %d after three joins, want 5", n)
	}
}

// TestUDPSendReusesSlice reuses one message slice across reliable sends
// from one goroutine while the host's goroutine launches them: the bursts
// overrun the send window, so scatterings leave the credit wait queue, and
// are retransmitted, after Send has returned and the slice was rewritten.
// Send copies the messages, so under -race nothing is reported and every
// payload arrives once, in send order.
func TestUDPSendReusesSlice(t *testing.T) {
	l, err := NewUDPCluster(LiveConfig{Hosts: 2, ProcsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 300
	var mu sync.Mutex
	var got []string
	all := make(chan struct{})
	l.Process(1).OnDeliver(func(d Delivery) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(d.Data.([]byte)))
		if len(got) == n {
			close(all)
		}
	})
	done := make(chan error, 1)
	go func() {
		msgs := make([]Message, 1)
		for i := 0; i < n; {
			msgs[0] = Message{Dst: 1, Data: []byte(strconv.Itoa(i)), Size: 8}
			err := l.Process(0).Send(msgs, Reliable())
			msgs[0] = Message{} // the caller's slice is its own again
			switch {
			case err == nil:
				i++
			case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrSendBufferFull):
				time.Sleep(50 * time.Microsecond)
			default:
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-all:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d delivered", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != strconv.Itoa(i) {
			t.Fatalf("delivery %d carries %q, want %q", i, s, strconv.Itoa(i))
		}
	}
}
