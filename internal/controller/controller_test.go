package controller

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func testCluster(t *testing.T, mut func(*netsim.Config)) (*core.Cluster, *Controller) {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	cfg.ControllerManagedCommit = true
	if mut != nil {
		mut(&cfg)
	}
	n := netsim.New(cfg)
	cl := core.Deploy(n, core.DefaultConfig())
	ctrl := New(n, cl)
	// Let the Raft group elect before traffic starts.
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("controller replicas never elected a leader")
	}
	return cl, ctrl
}

func TestHostFailureDetectedAndRecorded(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	base := eng.Now()
	eng.At(base+100*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(3)) })
	cl.Run(5 * sim.Millisecond)
	if len(ctrl.Failures) != 1 {
		t.Fatalf("failure records = %d, want 1", len(ctrl.Failures))
	}
	rec := ctrl.Failures[0]
	if _, ok := rec.Procs[3]; !ok || len(rec.Procs) != 1 {
		t.Fatalf("failed procs = %v, want {3}", rec.Procs)
	}
	if rec.Procs[3] == 0 {
		t.Fatal("failure timestamp not determined")
	}
}

func TestCoreSwitchFailureNoProcessFails(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	var corePhys int
	for _, n := range cl.Net.G.Nodes {
		if n.Kind == topology.KindCore {
			corePhys = n.Phys
			break
		}
	}
	recovered := false
	ctrl.OnRecovered = func(rec FailureRecord) {
		recovered = true
		if len(rec.Procs) != 0 {
			t.Errorf("core switch failure marked processes failed: %v", rec.Procs)
		}
	}
	eng.At(eng.Now()+100*sim.Microsecond, func() { cl.Net.G.KillPhys(corePhys) })
	cl.Run(5 * sim.Millisecond)
	if !recovered {
		t.Fatal("controller never completed recovery")
	}
}

func TestCommitBarrierStallsThenResumes(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	recoveredAt := sim.Time(0)
	var cAtRecovery sim.Time
	killAt := eng.Now() + 100*sim.Microsecond
	ctrl.OnRecovered = func(FailureRecord) {
		recoveredAt = eng.Now()
		_, cAtRecovery = cl.Hosts[7].Barriers()
	}
	eng.At(killAt, func() { cl.Net.G.KillNode(cl.Net.G.Host(0)) })
	cl.Run(2 * sim.Millisecond)
	if recoveredAt == 0 {
		t.Fatal("no recovery")
	}
	// While the failed host's link gated the commit plane, the barrier
	// could not advance much past the kill time.
	if cAtRecovery > killAt+netsim.DeadLinkBeacons*cl.Net.Cfg.BeaconInterval {
		t.Fatalf("commit barrier %v advanced during the stall (killed at %v)", cAtRecovery, killAt)
	}
	cl.Run(1 * sim.Millisecond)
	_, cLater := cl.Hosts[7].Barriers()
	lag := eng.Now() - cLater
	if lag > 50*sim.Microsecond {
		t.Fatalf("commit barrier lag %v after resume", lag)
	}
}

func TestRecoveryTimeInExpectedRange(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	eng.At(eng.Now()+100*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(5)) })
	cl.Run(5 * sim.Millisecond)
	if ctrl.RecoveryTime.N() != 1 {
		t.Fatalf("recovery samples = %d", ctrl.RecoveryTime.N())
	}
	// Paper: 50-500us depending on scale and failure type.
	us := ctrl.RecoveryTime.Mean()
	if us < 20 || us > 1000 {
		t.Fatalf("recovery time %.1fus outside plausible range", us)
	}
}

func TestEndToEndAtomicityWithController(t *testing.T) {
	// Full §5.2 pipeline: a reliable scattering to {dead, alive} must be
	// recalled automatically once the controller handles the failure.
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	deliveredAlive := false
	cl.Procs[2].OnDeliver = func(d core.Delivery) { deliveredAlive = true }
	var senderFails int
	cl.Procs[0].OnSendFail = func(core.SendFailure) { senderFails++ }
	var procFailSeen bool
	cl.Procs[2].OnProcFail = func(p netsim.ProcID, ts sim.Time) {
		if p == 1 {
			procFailSeen = true
		}
	}
	base := eng.Now()
	eng.At(base+90*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	eng.At(base+100*sim.Microsecond, func() {
		cl.Proc(0).SendReliable([]core.Message{
			{Dst: 1, Data: "dead", Size: 64},
			{Dst: 2, Data: "alive", Size: 64},
		})
	})
	cl.Run(10 * sim.Millisecond)
	if deliveredAlive {
		t.Fatal("atomicity violated")
	}
	if senderFails != 2 {
		t.Fatalf("sender failures = %d, want 2", senderFails)
	}
	if !procFailSeen {
		t.Fatal("process-failure callback not invoked")
	}
	if len(ctrl.Failures) == 0 {
		t.Fatal("no failure recorded")
	}
}

func TestMessagesBeforeFailureTimestampStillDeliver(t *testing.T) {
	// A reliable message fully committed before the failure must deliver
	// even though its sender subsequently dies.
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	var got []string
	cl.Procs[2].OnDeliver = func(d core.Delivery) { got = append(got, d.Data.(string)) }
	base := eng.Now()
	eng.At(base+100*sim.Microsecond, func() {
		cl.Proc(1).SendReliable([]core.Message{{Dst: 2, Data: "committed", Size: 64}})
	})
	eng.At(base+500*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	cl.Run(10 * sim.Millisecond)
	if len(got) != 1 || got[0] != "committed" {
		t.Fatalf("delivered %v, want [committed]", got)
	}
	if len(ctrl.Failures) != 1 {
		t.Fatalf("failures = %d", len(ctrl.Failures))
	}
}

func TestTrafficContinuesAfterRecovery(t *testing.T) {
	cl, _ := testCluster(t, nil)
	eng := cl.Net.Eng
	delivered := 0
	cl.Procs[2].OnDeliver = func(d core.Delivery) { delivered++ }
	base := eng.Now()
	eng.At(base+100*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	// After recovery completes, reliable traffic among survivors flows.
	eng.At(base+3*sim.Millisecond, func() {
		for i := 0; i < 10; i++ {
			cl.Proc(0).SendReliable([]core.Message{{Dst: 2, Size: 64}})
		}
	})
	cl.Run(10 * sim.Millisecond)
	if delivered != 10 {
		t.Fatalf("delivered %d of 10 after recovery", delivered)
	}
}

func TestToRFailureKillsRack(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	// Host 0 and 1 share tor0.
	tor := cl.Net.G.Links[cl.Net.G.Out[cl.Net.G.Host(0)][0]].To
	torPhys := cl.Net.G.Nodes[tor].Phys
	eng.At(eng.Now()+100*sim.Microsecond, func() { cl.Net.G.KillPhys(torPhys) })
	cl.Run(5 * sim.Millisecond)
	if len(ctrl.Failures) == 0 {
		t.Fatal("no failure recorded")
	}
	procs := ctrl.Failures[0].Procs
	if len(procs) != 2 {
		t.Fatalf("failed procs = %v, want both rack hosts", procs)
	}
	if _, ok := procs[0]; !ok {
		t.Fatal("proc 0 not marked failed")
	}
	if _, ok := procs[1]; !ok {
		t.Fatal("proc 1 not marked failed")
	}
}

func TestRecoverHostReplaysState(t *testing.T) {
	cl, ctrl := testCluster(t, nil)
	eng := cl.Net.Eng
	eng.At(eng.Now()+100*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	cl.Run(5 * sim.Millisecond)
	// Host 3 "recovers" fresh (simulating a rejoining receiver) and asks
	// the controller for missed state.
	ctrl.RecoverHost(3)
	cl.Run(1 * sim.Millisecond)
	// It must know about host 1's failure now: sends to proc 1 fail fast.
	err := cl.Proc(3).SendReliable([]core.Message{{Dst: 1, Size: 64}})
	if err == nil {
		t.Fatal("send to known-failed proc succeeded")
	}
}
