package netsim

import (
	"testing"

	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func TestCommitPlaneGatedUntilResume(t *testing.T) {
	cfg := smallCfg()
	cfg.ControllerManagedCommit = true
	n := testNet(t, cfg)
	var barrierC sim.Time
	n.AttachHost(7, func(p *Packet) {
		if p.BarrierC > barrierC {
			barrierC = p.BarrierC
		}
	})
	n.Eng.RunUntil(300 * sim.Microsecond)
	n.G.KillNode(n.G.Host(0))
	n.Eng.RunUntil(600 * sim.Microsecond)
	// BE scanner removed the link, but the commit plane must still be
	// gated by the dead link's last register.
	gated := n.CommitGatedLinks()
	if len(gated) == 0 {
		t.Fatal("no commit-gated links after host death")
	}
	stuck := barrierC
	if stuck > 320*sim.Microsecond {
		t.Fatalf("commit barrier %v advanced past the failure", stuck)
	}
	for _, lid := range gated {
		n.ResumeCommitPlane(lid)
	}
	n.Eng.RunUntil(900 * sim.Microsecond)
	if barrierC <= stuck {
		t.Fatalf("commit barrier did not advance after Resume: %v", barrierC)
	}
	if len(n.CommitGatedLinks()) != 0 {
		t.Fatal("gated links remain after Resume")
	}
}

func TestBEPlaneRecoversWithoutController(t *testing.T) {
	cfg := smallCfg() // ControllerManagedCommit = false
	n := testNet(t, cfg)
	var barrierC sim.Time
	n.AttachHost(7, func(p *Packet) {
		if p.BarrierC > barrierC {
			barrierC = p.BarrierC
		}
	})
	n.Eng.RunUntil(300 * sim.Microsecond)
	n.G.KillNode(n.G.Host(0))
	n.Eng.RunUntil(800 * sim.Microsecond)
	// Decentralized mode: both planes resume after the scanner timeout.
	if lag := 800*sim.Microsecond - barrierC; lag > 10*cfg.BeaconInterval {
		t.Fatalf("commit barrier lag %v without controller gating", lag)
	}
	if len(n.CommitGatedLinks()) != 0 {
		t.Fatal("links stayed commit-gated in decentralized mode")
	}
}

func TestLinkRegistersExposed(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	n.Eng.RunUntil(100 * sim.Microsecond)
	uplink := n.G.Out[n.G.Host(0)][0]
	be, c := n.LinkRegisters(uplink)
	if be == 0 || c == 0 {
		t.Fatalf("uplink registers never advanced: be=%v c=%v", be, c)
	}
	if be < 90*sim.Microsecond {
		t.Fatalf("uplink BE register %v too stale", be)
	}
}

func TestNodeBarrierMonotoneAcrossLinkChurn(t *testing.T) {
	// Kill and revive a host link; the downstream switch's published
	// barrier must never decrease (§4.2 suspension rule).
	cfg := smallCfg()
	n := testNet(t, cfg)
	tor := n.G.Links[n.G.Out[n.G.Host(0)][0]].To
	var lastBE, lastC sim.Time
	check := sim.NewTicker(n.Eng, sim.Microsecond, 0, func() {
		be, c := n.NodeBarriers(tor)
		if be < lastBE || c < lastC {
			t.Errorf("switch barrier regressed: be %v->%v c %v->%v", lastBE, be, lastC, c)
		}
		lastBE, lastC = be, c
	})
	defer check.Stop()
	n.Eng.RunUntil(200 * sim.Microsecond)
	n.G.KillNode(n.G.Host(0))
	n.Eng.RunUntil(500 * sim.Microsecond)
	n.G.Revive()
	n.Eng.RunUntil(900 * sim.Microsecond)
}

func TestStatsAccounting(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	n.AttachHost(1, func(*Packet) {})
	n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 1, MsgTS: 1, BarrierBE: 1, Size: 128})
	n.Eng.RunUntil(200 * sim.Microsecond)
	if n.Stats.PktsByKind[KindData] == 0 {
		t.Fatal("data packets not counted")
	}
	if n.Stats.BytesByKind[KindData] == 0 {
		t.Fatal("data bytes not counted")
	}
	if n.Stats.Delivered == 0 {
		t.Fatal("deliveries not counted")
	}
}

func TestDisableBeacons(t *testing.T) {
	cfg := DefaultConfig(topology.Testbed(), 1)
	cfg.DisableBeacons = true
	n := New(cfg)
	n.Eng.RunUntil(1 * sim.Millisecond)
	if n.Stats.PktsByKind[KindBeacon] != 0 {
		t.Fatalf("%d beacons sent with beacons disabled", n.Stats.PktsByKind[KindBeacon])
	}
}

// TestDrainedLinkNotReportedDead is the graceful-leave regression test: a
// drained link goes silent by design, and the dead-link scanner must never
// turn that silence — or straggler beacons still in flight — into a false
// failure report to the controller.
func TestDrainedLinkNotReportedDead(t *testing.T) {
	cfg := smallCfg()
	cfg.ControllerManagedCommit = true
	n := testNet(t, cfg)
	reports := map[topology.LinkID]int{}
	n.OnLinkDead = func(l topology.Link) { reports[l.ID]++ }
	var barrier sim.Time
	regressions := 0
	n.AttachHost(7, func(p *Packet) {
		if p.BarrierBE < barrier {
			regressions++
		}
		if p.BarrierBE > barrier {
			barrier = p.BarrierBE
		}
	})
	n.Eng.RunUntil(300 * sim.Microsecond)
	host := n.G.Host(0)
	var drained []topology.LinkID
	for _, lid := range n.G.Out[host] {
		drained = append(drained, lid)
	}
	for _, lid := range n.G.In[host] {
		drained = append(drained, lid)
	}
	n.G.DrainNode(host)
	for _, lid := range drained {
		n.DrainLink(lid)
	}
	// testNet's beacon ticker for host 0 keeps firing: those stragglers
	// arrive on a drained link and must not resurrect it.
	n.Eng.RunUntil(1500 * sim.Microsecond)
	for _, lid := range drained {
		if c := reports[lid]; c != 0 {
			t.Fatalf("drained link %d got %d dead-link reports", lid, c)
		}
		if !n.LinkDrained(lid) {
			t.Fatalf("link %d lost its drain mark", lid)
		}
	}
	if len(n.CommitGatedLinks()) != 0 {
		t.Fatalf("drain left commit-gated links: %v", n.CommitGatedLinks())
	}
	if regressions != 0 {
		t.Fatalf("%d barrier regressions at a live host after drain", regressions)
	}
	if barrier < 1200*sim.Microsecond {
		t.Fatalf("barrier stalled at %v after drain — drained registers still aggregated", barrier)
	}
	// Contrast: an actual death on the same fabric still gets reported.
	n.G.KillNode(n.G.Host(1))
	n.Eng.RunUntil(2500 * sim.Microsecond)
	killed := n.G.Out[n.G.Host(1)][0]
	if reports[killed] == 0 {
		t.Fatal("killed host's uplink never reported dead — scanner over-suppressed")
	}
}

// TestGrowAndAdmitHost exercises runtime growth end to end at the netsim
// layer: topology AddHost + Grow mid-traffic (pointer stability of
// scheduled events), two-phase admit with register seeding at the join
// epoch, and delivery to the joined host without any barrier regression
// at incumbents.
func TestGrowAndAdmitHost(t *testing.T) {
	cfg := smallCfg()
	n := testNet(t, cfg)
	var barrier sim.Time
	regressions := 0
	n.AttachHost(7, func(p *Packet) {
		if p.BarrierBE < barrier {
			regressions++
		}
		if p.BarrierBE > barrier {
			barrier = p.BarrierBE
		}
	})
	reports := 0
	n.OnLinkDead = func(topology.Link) { reports++ }
	n.Eng.RunUntil(300 * sim.Microsecond)

	id, links, err := n.G.AddHost(0, 0)
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	n.G.DrainNode(id) // prepare: invisible to routing until activate
	added := n.Grow()
	if len(added) != len(links) {
		t.Fatalf("Grow added %d links, want %d", len(added), len(links))
	}
	hi := n.G.HostIndex(id)
	if hi != 8 {
		t.Fatalf("HostIndex = %d, want 8", hi)
	}
	if n.NumProcs() != 9*cfg.ProcsPerHost {
		t.Fatalf("NumProcs = %d after growth", n.NumProcs())
	}
	// Prepared-but-unadmitted links sit outside aggregation and the
	// scanner: running here must neither stall barriers nor raise reports.
	n.Eng.RunUntil(900 * sim.Microsecond)
	if reports != 0 {
		t.Fatalf("%d dead-link reports from unadmitted links", reports)
	}
	if barrier < 600*sim.Microsecond {
		t.Fatalf("barrier stalled at %v with prepared links", barrier)
	}

	// Activate: seed at the join epoch, force the clock, beacon, deliver.
	tj := n.MaxBarrier() + 2*sim.Microsecond
	n.Clocks[hi].AdvanceTo(tj)
	n.G.UndrainNode(id)
	for _, lid := range links {
		n.AdmitLink(lid, tj, tj)
	}
	var got []*Packet
	n.AttachHost(hi, func(p *Packet) {
		if p.Kind == KindData {
			got = append(got, p)
		}
	})
	sim.NewTicker(n.Eng, cfg.BeaconInterval, 0, func() {
		now := n.Clocks[hi].Now()
		n.SendFromHost(hi, &Packet{Kind: KindBeacon, BarrierBE: now, BarrierC: now, Size: BeaconBytes})
	})
	n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: ProcID(hi * cfg.ProcsPerHost), MsgTS: tj, BarrierBE: tj, Size: 128, Payload: "welcome"})
	n.Eng.RunUntil(1600 * sim.Microsecond)
	if len(got) != 1 {
		t.Fatalf("joined host received %d data packets, want 1", len(got))
	}
	if regressions != 0 {
		t.Fatalf("%d barrier regressions at incumbent after admit", regressions)
	}
	if barrier < 1300*sim.Microsecond {
		t.Fatalf("barrier stalled at %v after admit", barrier)
	}
	if reports != 0 {
		t.Fatalf("%d dead-link reports during a clean join", reports)
	}
}
