package onepipe_test

import (
	"errors"
	"sync"
	"testing"

	"onepipe"
)

func closedSendErrCheck(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: send on closed fabric returned nil", name)
	}
	if !errors.Is(err, onepipe.ErrClosed) {
		t.Fatalf("%s: send on closed fabric returned %v, want errors.Is(err, ErrClosed)", name, err)
	}
}

// TestSendAfterCloseLive pins the shutdown contract on the UDP fabric: a
// send issued after Close returns a typed ErrClosed instead of panicking
// or hanging.
func TestSendAfterCloseLive(t *testing.T) {
	msg := []onepipe.Message{{Dst: 1, Data: []byte("late"), Size: 16}}
	u, err := onepipe.NewUDPCluster(onepipe.LiveConfig{Hosts: 2, ProcsPerHost: 1})
	if err != nil {
		t.Fatalf("udp cluster: %v", err)
	}
	u.Close()
	closedSendErrCheck(t, "udpnet", u.Process(0).Send(msg))
	closedSendErrCheck(t, "udpnet-reliable", u.Process(0).Send(msg, onepipe.Reliable()))
}

// TestSendRacingClose hammers Send from several goroutines while Close runs
// concurrently. Every send must either succeed or fail with a well-typed
// error, never panic on the closed fabric.
func TestSendRacingClose(t *testing.T) {
	t.Run("udpnet", func(t *testing.T) {
		fab, err := onepipe.NewUDPCluster(onepipe.LiveConfig{Hosts: 3, ProcsPerHost: 1})
		if err != nil {
			t.Fatalf("udp cluster: %v", err)
		}
		msg := []onepipe.Message{{Dst: 2, Data: []byte("race"), Size: 16}}
		var wg sync.WaitGroup
		errs := make(chan error, 1024)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					if err := fab.Process(g % 2).Send(msg); err != nil {
						select {
						case errs <- err:
						default:
						}
					}
				}
			}()
		}
		close(start)
		fab.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, onepipe.ErrClosed) {
				t.Fatalf("send racing Close returned %v, want ErrClosed", err)
			}
		}
	})
}
