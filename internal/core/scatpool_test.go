package core

import (
	"testing"

	"onepipe/internal/sim"
)

// releasedScattering sends one best-effort message between two cabled hosts
// and returns the sender with the scattering its ACK released.
func releasedScattering(t *testing.T) (*Host, *scattering) {
	t.Helper()
	eng, hosts, procs, _ := cablePair(DefaultConfig())
	procs[1].OnDeliver = func(Delivery) {}
	if err := procs[0].Send([]Message{{Dst: 1, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(100 * sim.Microsecond)
	h := hosts[0]
	if free := h.scats.free[0]; len(free) != 1 || !free[0].free {
		t.Fatalf("the ACKed scattering is not on the free list: %v", free)
	}
	return h, h.scats.free[0][0]
}

// mustPanic runs fn and requires it to panic with want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want panic %q", r, want)
		}
	}()
	fn()
}

// TestReleasedScatteringGuard is the negative control of the lifetime
// guard: a released scattering is marked, and releasing it again, or
// completing, timing out or launching it, panics instead of corrupting the
// scattering the next send takes off the list.
func TestReleasedScatteringGuard(t *testing.T) {
	t.Run("release twice", func(t *testing.T) {
		h, s := releasedScattering(t)
		mustPanic(t, releaseTwice, func() { h.releaseScattering(s) })
	})
	t.Run("ACK", func(t *testing.T) {
		h, s := releasedScattering(t)
		mustPanic(t, useFreed, func() { h.onPacketAcked(&outPkt{scat: s}) })
	})
	t.Run("send-fail timeout", func(t *testing.T) {
		h, s := releasedScattering(t)
		mustPanic(t, useFreed, func() { h.beSendTimeout(s) })
	})
	t.Run("launch", func(t *testing.T) {
		h, s := releasedScattering(t)
		mustPanic(t, useFreed, func() { h.launch(s) })
	})
}

// TestFrameAckReleasesMidWalk: three one-message best-effort scatterings
// share one frame, so its single ACK completes, and releases, the first
// member's scattering while the walk still has two members to go. Releasing
// clears the released scattering's packets, fnext included; every member
// must still be counted, so all three are released and none is reported
// failed once the send-fail timeout has passed.
func TestFrameAckReleasesMidWalk(t *testing.T) {
	eng, hosts, procs, _ := cablePair(DefaultConfig())
	h := hosts[0]
	delivered := 0
	procs[1].OnDeliver = func(Delivery) { delivered++ }
	failed := 0
	procs[0].OnSendFail = func(SendFailure) { failed++ }
	for i := 0; i < 3; i++ {
		if err := procs[0].Send([]Message{{Dst: 1, Data: i, Size: 64}}); err != nil {
			t.Fatal(err)
		}
	}
	var scats []*scattering
	for _, op := range h.findConn(0, 1).view().sendQ.live() {
		scats = append(scats, op.scat)
	}
	if len(scats) != 3 {
		t.Fatalf("%d fragments waiting for the doorbell, want 3", len(scats))
	}
	eng.RunFor(2 * h.Cfg.SendFailTimeout)
	if h.Stats.FramesSent != 1 || h.Stats.FrameMsgs != 3 {
		t.Fatalf("%d frames carrying %d messages, want 1 carrying 3", h.Stats.FramesSent, h.Stats.FrameMsgs)
	}
	if delivered != 3 || failed != 0 {
		t.Fatalf("%d delivered, %d failed; want 3 and 0", delivered, failed)
	}
	for i, s := range scats {
		if !s.free {
			t.Fatalf("member %d's scattering was not released: the walk stopped short", i)
		}
	}
	if live := h.scats.live; live != [2]int{} {
		t.Fatalf("%v scatterings still counted live", live)
	}
}
