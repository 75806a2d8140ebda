package udpnet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
)

func TestUDPMultipleProcsPerHost(t *testing.T) {
	c, err := Start(DefaultConfig(2, 2)) // 4 procs on 2 hosts
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumProcs() != 4 {
		t.Fatalf("NumProcs = %d", c.NumProcs())
	}
	var mu sync.Mutex
	got := make(map[int]string)
	for i := 1; i < 4; i++ {
		i := i
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			mu.Lock()
			got[i] = string(d.Data.([]byte))
			mu.Unlock()
		})
	}
	// Scattering from proc 0 to the other three procs, including its own
	// host's sibling proc 1.
	err = c.Proc(0).SendOpts([]core.Message{
		{Dst: 1, Data: []byte("sib"), Size: 3},
		{Dst: 2, Data: []byte("rem"), Size: 3},
		{Dst: 3, Data: []byte("rem2"), Size: 4},
	}, core.SendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if got[1] != "sib" || got[2] != "rem" || got[3] != "rem2" {
		t.Fatalf("got %v", got)
	}
}

func TestUDPSendToUnknownProc(t *testing.T) {
	c, err := Start(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Destination outside the fabric: the switch drops it; best-effort
	// reports a send failure rather than wedging.
	fails := 0
	var mu sync.Mutex
	hn := c.snapshot()[0]
	hn.mu.Lock()
	hn.procs[netsim.ProcID(0)].OnSendFail = func(core.SendFailure) {
		mu.Lock()
		fails++
		mu.Unlock()
	}
	hn.mu.Unlock()
	c.Proc(0).SendOpts([]core.Message{{Dst: 99, Data: []byte("x"), Size: 1}}, core.SendOptions{})
	waitFor(t, c, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fails == 1
	})
}
