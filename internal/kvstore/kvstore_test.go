package kvstore

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func deploy(t *testing.T, mode Mode, mut func(*Config)) *Store {
	t.Helper()
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 2)
	cl := core.Deploy(netsim.New(ncfg), core.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Keys = 1 << 16
	if mut != nil {
		mut(&cfg)
	}
	return New(cl, mode, cfg)
}

func TestOnePipeCommitsWithoutAborts(t *testing.T) {
	st := deploy(t, Mode1Pipe, nil)
	s := st.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if s.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if s.Aborted != 0 {
		t.Fatalf("1Pipe aborted %d transactions", s.Aborted)
	}
	if s.LatRO.N() == 0 || s.LatWR.N()+s.LatWO.N() == 0 {
		t.Fatal("latency classes not populated")
	}
}

func TestOnePipeROFasterThanWR(t *testing.T) {
	st := deploy(t, Mode1Pipe, nil)
	s := st.Run(200*sim.Microsecond, 1*sim.Millisecond)
	if s.LatRO.Mean() >= s.LatWR.Mean() {
		t.Fatalf("RO latency %.1fus not below WR %.1fus (best-effort vs reliable)",
			s.LatRO.Mean(), s.LatWR.Mean())
	}
}

func TestFaRMCommitsUniform(t *testing.T) {
	st := deploy(t, ModeFaRM, nil)
	s := st.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if s.Committed == 0 {
		t.Fatal("FaRM committed nothing")
	}
	// Uniform over 64k keys with 16 clients: contention is negligible.
	if s.AbortRate() > 0.05 {
		t.Fatalf("FaRM abort rate %.3f too high on uniform workload", s.AbortRate())
	}
}

func TestNonTXCommits(t *testing.T) {
	st := deploy(t, ModeNonTX, nil)
	s := st.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if s.Committed == 0 {
		t.Fatal("NonTX committed nothing")
	}
	if s.Aborted != 0 {
		t.Fatalf("NonTX aborted %d", s.Aborted)
	}
}

func TestContentionOnePipeBeatsFaRM(t *testing.T) {
	// High write fraction on a tiny hot keyspace: FaRM's locks collide
	// constantly; 1Pipe is conflict-free (Fig. 14a YCSB shape).
	hot := func(c *Config) {
		c.Keys = 16
		c.WriteFrac = 0.8
	}
	sp := deploy(t, Mode1Pipe, hot).Run(200*sim.Microsecond, 1*sim.Millisecond)
	sf := deploy(t, ModeFaRM, hot).Run(200*sim.Microsecond, 1*sim.Millisecond)
	if sp.Committed == 0 || sf.Committed == 0 {
		t.Fatalf("commits: 1pipe=%d farm=%d", sp.Committed, sf.Committed)
	}
	if sf.AbortRate() < 0.1 {
		t.Fatalf("FaRM abort rate %.3f suspiciously low under contention", sf.AbortRate())
	}
	if float64(sp.Committed) < 1.5*float64(sf.Committed) {
		t.Fatalf("1Pipe (%d) did not clearly beat FaRM (%d) under contention",
			sp.Committed, sf.Committed)
	}
}

func TestOnePipeNearNonTX(t *testing.T) {
	// Paper: 1Pipe reaches ~90% of the non-transactional bound.
	sp := deploy(t, Mode1Pipe, nil).Run(200*sim.Microsecond, 1*sim.Millisecond)
	sn := deploy(t, ModeNonTX, nil).Run(200*sim.Microsecond, 1*sim.Millisecond)
	ratio := float64(sp.Committed) / float64(sn.Committed)
	if ratio < 0.5 || ratio > 1.2 {
		t.Fatalf("1Pipe/NonTX throughput ratio %.2f outside plausible band", ratio)
	}
}

func TestZipfSkewReducesThroughput(t *testing.T) {
	uni := deploy(t, Mode1Pipe, nil).Run(200*sim.Microsecond, 1*sim.Millisecond)
	zipf := deploy(t, Mode1Pipe, func(c *Config) { c.Zipf = true }).Run(200*sim.Microsecond, 1*sim.Millisecond)
	// Hot keys imbalance server load; throughput drops but stays healthy
	// (paper: YCSB reaches ~70% of uniform at scale).
	if zipf.Committed == 0 {
		t.Fatal("zipf committed nothing")
	}
	if float64(zipf.Committed) > 1.1*float64(uni.Committed) {
		t.Fatalf("zipf (%d) should not beat uniform (%d)", zipf.Committed, uni.Committed)
	}
}

func TestRecoveryUnderLoss(t *testing.T) {
	st := deploy(t, Mode1Pipe, nil)
	s := st.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if s.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ncfg.Impair = netsim.UniformLoss(0.001)
	cl := core.Deploy(netsim.New(ncfg), core.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Keys = 1 << 16
	st := New(cl, Mode1Pipe, cfg)
	s := st.Run(200*sim.Microsecond, 2*sim.Millisecond)
	if s.Committed == 0 {
		t.Fatal("nothing committed under loss")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := deploy(t, Mode1Pipe, nil).Run(100*sim.Microsecond, 300*sim.Microsecond)
	b := deploy(t, Mode1Pipe, nil).Run(100*sim.Microsecond, 300*sim.Microsecond)
	if a.Committed != b.Committed || a.Aborted != b.Aborted {
		t.Fatalf("same-seed runs diverged: %d/%d vs %d/%d", a.Committed, a.Aborted, b.Committed, b.Aborted)
	}
}

func TestLargerTxnSizes(t *testing.T) {
	st := deploy(t, Mode1Pipe, func(c *Config) { c.OpsPerTxn = 16 })
	s := st.Run(200*sim.Microsecond, 500*sim.Microsecond)
	if s.Committed == 0 {
		t.Fatal("nothing committed with 16-op transactions")
	}
	if s.KVOps != s.Committed*16 {
		t.Fatalf("KVOps=%d, want committed*16=%d", s.KVOps, s.Committed*16)
	}
}
