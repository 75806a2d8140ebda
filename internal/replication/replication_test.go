package replication

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func cluster(t *testing.T, mut func(*netsim.Config)) *core.Cluster {
	t.Helper()
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	if mut != nil {
		mut(&ncfg)
	}
	return core.Deploy(netsim.New(ncfg), core.DefaultConfig())
}

func TestSingleClientAppend(t *testing.T) {
	cl := cluster(t, nil)
	g := NewGroup(cl, []netsim.ProcID{5, 6, 7}, DefaultConfig())
	c := g.Client(0)
	okCount := 0
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		for i := 0; i < 20; i++ {
			c.Append(i, 64, func(ok bool) {
				if ok {
					okCount++
				}
			})
		}
	})
	cl.Run(5 * sim.Millisecond)
	if okCount != 20 {
		t.Fatalf("acknowledged %d of 20 appends", okCount)
	}
	for _, r := range []netsim.ProcID{5, 6, 7} {
		if len(g.Log(r)) != 20 {
			t.Fatalf("replica %d has %d entries", r, len(g.Log(r)))
		}
	}
	if g.ConsistentPrefix() != 20 {
		t.Fatalf("consistent prefix %d, want 20", g.ConsistentPrefix())
	}
}

func TestConcurrentClientsConsistentOrder(t *testing.T) {
	cl := cluster(t, nil)
	reps := []netsim.ProcID{5, 6, 7}
	g := NewGroup(cl, reps, DefaultConfig())
	eng := cl.Net.Eng
	total := 0
	for _, p := range []int{0, 1, 2, 3} {
		c := g.Client(netsim.ProcID(p))
		p := p
		sim.NewTicker(eng, 2*sim.Microsecond, 0, func() {
			if eng.Now() > 300*sim.Microsecond {
				return
			}
			c.Append(p, 64, func(ok bool) {
				if ok {
					total++
				}
			})
		})
	}
	cl.Run(3 * sim.Millisecond)
	if total == 0 {
		t.Fatal("no appends succeeded")
	}
	if g.Stats.ChecksumErrs != 0 {
		t.Fatalf("%d checksum mismatches on a healthy network", g.Stats.ChecksumErrs)
	}
	// All replicas hold the identical interleaving of all clients.
	if n := g.ConsistentPrefix(); n != len(g.Log(5)) || len(g.Log(5)) != len(g.Log(6)) || len(g.Log(6)) != len(g.Log(7)) {
		t.Fatalf("replica logs diverge: prefix=%d lens=%d/%d/%d", n, len(g.Log(5)), len(g.Log(6)), len(g.Log(7)))
	}
}

func TestLossRecoveredByRetransmission(t *testing.T) {
	cl := cluster(t, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.01); c.Seed = 11 })
	reps := []netsim.ProcID{5, 6, 7}
	g := NewGroup(cl, reps, DefaultConfig())
	c := g.Client(0)
	acked := 0
	eng := cl.Net.Eng
	for i := 0; i < 200; i++ {
		i := i
		eng.At(sim.Time(100+i*2)*sim.Microsecond, func() {
			c.Append(i, 64, func(ok bool) {
				if ok {
					acked++
				}
			})
		})
	}
	cl.Run(20 * sim.Millisecond)
	if acked != 200 {
		t.Fatalf("acked %d of 200 under loss", acked)
	}
	if g.Stats.Retransmits == 0 {
		t.Fatal("expected retransmissions under 1% loss")
	}
	if !g.ClientConsistent() {
		t.Fatal("per-client log sequences diverge after loss recovery")
	}
	for _, r := range []netsim.ProcID{5, 6, 7} {
		if len(g.Log(r)) != 200 {
			t.Fatalf("replica %d holds %d entries, want 200", r, len(g.Log(r)))
		}
	}
}

func TestOneRTTLatency(t *testing.T) {
	cl := cluster(t, nil)
	g := NewGroup(cl, []netsim.ProcID{5, 6, 7}, DefaultConfig())
	c := g.Client(0)
	eng := cl.Net.Eng
	for i := 0; i < 30; i++ {
		at := sim.Time(100_000+i*20_000+i%7*433) * sim.Nanosecond
		eng.At(at, func() { c.Append("x", 64, nil) })
	}
	cl.Run(5 * sim.Millisecond)
	// One-way delivery (+ barrier wait) + reply: well under two RTTs of a
	// consensus round plus no sequencer hop.
	if m := g.Stats.Latency.Mean(); m < 2 || m > 20 {
		t.Fatalf("1-RTT replication latency %.1fus outside envelope", m)
	}
}

func TestCephComparison(t *testing.T) {
	// §7.3.4: 4KB random writes, 3 replicas, idle system. Paper: 160us ->
	// 58us (64% reduction).
	cl1 := cluster(t, nil)
	g1 := NewGroup(cl1, []netsim.ProcID{5, 6, 7}, CephConfig())
	c := g1.Client(0)
	eng1 := cl1.Net.Eng
	for i := 0; i < 50; i++ {
		eng1.At(sim.Time(100+i*400)*sim.Microsecond, func() { c.Append("obj", 4096, nil) })
	}
	cl1.Run(25 * sim.Millisecond)

	cl2 := cluster(t, nil)
	g2 := NewCephGroup(cl2, 5, []netsim.ProcID{6, 7}, CephConfig())
	eng2 := cl2.Net.Eng
	for i := 0; i < 50; i++ {
		eng2.At(sim.Time(100+i*400)*sim.Microsecond, func() { g2.Write(0, 4096, nil) })
	}
	cl2.Run(25 * sim.Millisecond)

	lp, lc := g1.Stats.Latency.Mean(), g2.Stats.Latency.Mean()
	if g1.Stats.Appends != 50 || g2.Stats.Appends != 50 {
		t.Fatalf("appends: 1pipe=%d ceph=%d", g1.Stats.Appends, g2.Stats.Appends)
	}
	if lc < 100 || lc > 250 {
		t.Fatalf("ceph-style latency %.1fus outside the paper's ~160us band", lc)
	}
	if lp < 30 || lp > 110 {
		t.Fatalf("1Pipe replicated-write latency %.1fus outside the paper's ~58us band", lp)
	}
	reduction := 1 - lp/lc
	if reduction < 0.4 {
		t.Fatalf("latency reduction %.0f%%, paper reports ~64%%", reduction*100)
	}
}

func TestDiskFIFOUnderLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDisk(10*sim.Microsecond, 0, nil)
	var done []sim.Time
	for i := 0; i < 5; i++ {
		d.Write(eng, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	for i, at := range done {
		want := sim.Time(10*(i+1)) * sim.Microsecond
		if at != want {
			t.Fatalf("write %d completed at %v, want %v", i, at, want)
		}
	}
}
