package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// smallNetWith is smallNet with a mutated core config — the fail-edge tests
// shrink MaxRetx so recall exhaustion happens inside a test-sized run.
func smallNetWith(t *testing.T, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ccfg := DefaultConfig()
	if mut != nil {
		mut(&ccfg)
	}
	return Deploy(netsim.New(cfg), ccfg)
}

// TestLateRecallAckAfterMaxRetx pins the §5.2 abort path in which the recall
// itself gives up: destination dead, recall ACKs never return, resendRecall
// exhausts MaxRetx, reports OnStuck, and finishRecall releases the
// scattering and the ApplyFailure completion. A RecallAck or a controller
// ResolveUnreachable arriving AFTER that release must be a strict no-op — the
// recall state is gone, and the completion callback must not fire twice.
func TestLateRecallAckAfterMaxRetx(t *testing.T) {
	cl := smallNetWith(t, func(c *Config) { c.MaxRetx = 4 })
	h0 := cl.Hosts[0]
	g := cl.Net.G
	cl.Run(50 * sim.Microsecond)

	// Kill proc 5's host: data to it blackholes, so the scattering can
	// never commit and a failure round must recall the live member.
	deadHost := cl.Net.HostOfProc(5)
	g.KillNode(g.Host(deadHost))
	cl.Hosts[deadHost].Stop()
	if err := cl.Proc(0).SendReliable([]Message{
		{Dst: 3, Data: "m", Size: 64},
		{Dst: 5, Data: "m", Size: 64},
	}); err != nil {
		t.Fatal(err)
	}
	scatTS := h0.outstanding[0].ts

	// Sever host 0's receive path before the failure notification, so the
	// recall to proc 3 is sent and re-sent but its ACKs never arrive.
	for _, lid := range g.In[g.Host(0)] {
		g.KillLink(lid)
	}

	dones := 0
	h0.ApplyFailure(map[netsim.ProcID]sim.Time{5: scatTS}, func() { dones++ })
	if h0.Stats.Recalled != 1 {
		t.Fatalf("Recalled=%d, want 1", h0.Stats.Recalled)
	}
	// 4 retries x 20us RTO plus slack: the recall exhausts and finishes.
	cl.Run(500 * sim.Microsecond)
	if dones != 1 {
		t.Fatalf("ApplyFailure completion fired %d times, want exactly 1", dones)
	}
	if h0.Stats.StuckReports == 0 {
		t.Fatal("recall exhaustion did not report OnStuck")
	}
	if len(h0.recalls) != 0 {
		t.Fatalf("recall state leaked: %d entries", len(h0.recalls))
	}
	if len(h0.outstanding) != 0 {
		t.Fatalf("aborted scattering still outstanding (%d) — commit floor parked", len(h0.outstanding))
	}

	// The receiver's RecallAck finally limps in, long after finishRecall.
	h0.HandlePacket(&netsim.Packet{Kind: netsim.KindRecallAck, Src: 3, Dst: 0, MsgTS: scatTS})
	// And the controller resolves the same recall redundantly.
	h0.ResolveUnreachable(3, scatTS)
	cl.Run(50 * sim.Microsecond)

	if dones != 1 {
		t.Fatalf("late RecallAck/ResolveUnreachable re-fired completion: dones=%d", dones)
	}
	if h0.failWait != 0 {
		t.Fatalf("failWait=%d after late ack, want 0 (underflow corrupts the next failure round)", h0.failWait)
	}
}

// TestAbortRacesLateDataAck pins the recall-vs-ACK race: a reliable
// scattering is aborted (co-destination failed) while the ACK for the member
// already delivered to the correct destination is still in flight. The late
// ACK must not resurrect the dropped window state or complete the aborted
// scattering a second time; the commit floor must still be released exactly
// once via the recall path.
func TestAbortRacesLateDataAck(t *testing.T) {
	cl := smallNetWith(t, func(c *Config) { c.MaxRetx = 4 })
	h0 := cl.Hosts[0]
	g := cl.Net.G
	cl.Run(50 * sim.Microsecond)

	deadHost := cl.Net.HostOfProc(5)
	g.KillNode(g.Host(deadHost))
	cl.Hosts[deadHost].Stop()
	if err := cl.Proc(0).SendReliable([]Message{
		{Dst: 3, Data: "m", Size: 64},
		{Dst: 5, Data: "m", Size: 64},
	}); err != nil {
		t.Fatal(err)
	}
	scatTS := h0.outstanding[0].ts

	// Let the data reach proc 3 (it ACKs), but abort before running the
	// network long enough for the ACK to travel back: ApplyFailure drops
	// the un-ACKed window entry, THEN the ACK arrives.
	dones := 0
	h0.ApplyFailure(map[netsim.ProcID]sim.Time{5: scatTS}, func() { dones++ })

	// The first reliable data packet to proc 3 carried PSN 0 on a fresh
	// connection; inject its ACK directly — the exact late-arrival race.
	h0.HandlePacket(&netsim.Packet{Kind: netsim.KindAck, Src: 3, Dst: 0, PSN: 0, Reliable: true, MsgTS: scatTS})

	cl.Run(500 * sim.Microsecond)
	if dones != 1 {
		t.Fatalf("completion fired %d times, want exactly 1", dones)
	}
	if len(h0.outstanding) != 0 {
		t.Fatalf("aborted scattering still outstanding — late ACK resurrected it")
	}
	if h0.Stats.Recalled != 1 {
		t.Fatalf("Recalled=%d, want 1", h0.Stats.Recalled)
	}
	// The commit floor must be clear of the aborted timestamp.
	if f := h0.commitFloor(); f < scatTS {
		t.Fatalf("commit floor %v still parked below aborted scattering ts %v", f, scatTS)
	}
}

// TestSecondFailureSkipsAbortedScattering pins the overlapping-failure path:
// two failure rounds hit the same scattering (both destinations fail, one
// per round). recallAffected must skip the already-aborted scattering in
// round two (no double abort, no second recall), and ApplyFailure must
// compose the two completions — round two arriving while round one's recall
// is still pending must not clobber round one's callback (with sharded
// controllers two shards can broadcast to the same host concurrently, and a
// dropped completion wedges that shard's round forever).
func TestSecondFailureSkipsAbortedScattering(t *testing.T) {
	cl := smallNetWith(t, func(c *Config) { c.MaxRetx = 4 })
	h0 := cl.Hosts[0]
	g := cl.Net.G
	cl.Run(50 * sim.Microsecond)

	for _, p := range []netsim.ProcID{3, 5} {
		hi := cl.Net.HostOfProc(p)
		g.KillNode(g.Host(hi))
		cl.Hosts[hi].Stop()
	}
	if err := cl.Proc(0).SendReliable([]Message{
		{Dst: 3, Data: "m", Size: 64},
		{Dst: 5, Data: "m", Size: 64},
	}); err != nil {
		t.Fatal(err)
	}
	scatTS := h0.outstanding[0].ts

	done1, done2 := 0, 0
	h0.ApplyFailure(map[netsim.ProcID]sim.Time{5: scatTS}, func() { done1++ })
	if h0.Stats.Recalled != 1 {
		t.Fatalf("Recalled=%d after round one, want 1", h0.Stats.Recalled)
	}
	// Round two declares the other destination while round one's recall to
	// proc 3 is still pending. The scattering is already aborted, so round
	// two issues no new recall; its completion chains behind round one's
	// outstanding wait instead of firing early (or worse, clobbering it).
	h0.ApplyFailure(map[netsim.ProcID]sim.Time{3: scatTS}, func() { done2++ })
	if done1 != 0 || done2 != 0 {
		t.Fatalf("completions fired early: done1=%d done2=%d, want 0 and 0 while the recall is pending", done1, done2)
	}
	if h0.Stats.Recalled != 1 {
		t.Fatalf("Recalled=%d after round two, want still 1", h0.Stats.Recalled)
	}

	cl.Run(500 * sim.Microsecond)
	if done1 != 1 || done2 != 1 {
		t.Fatalf("completions fired done1=%d done2=%d, want 1 and 1", done1, done2)
	}
	if len(h0.outstanding) != 0 {
		t.Fatal("scattering never released")
	}
}
