package hashtable

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func deploy(t *testing.T, d Design, mix OpMix, replicas int) *Table {
	t.Helper()
	// 32 procs: 16 clients + 16 servers. The latency-sensitive data
	// structure runs with a 1 us beacon interval (the paper's Fig. 13
	// shows the overhead stays negligible), which keeps the barrier wait
	// close to the path delay.
	ncfg := netsim.DefaultConfig(topology.Testbed(), 1)
	ncfg.BeaconInterval = 1 * sim.Microsecond
	cl := core.Deploy(netsim.New(ncfg), core.DefaultConfig())
	return New(cl, d, mix, replicas)
}

func run(tb *Table) *Stats {
	return tb.Run(200*sim.Microsecond, 1*sim.Millisecond)
}

func TestAllVariantsMakeProgress(t *testing.T) {
	for _, d := range []Design{DesignOnePipe, DesignBase} {
		for _, mix := range []OpMix{MixInsert, MixLookup} {
			s := run(deploy(t, d, mix, 1))
			if s.Ops == 0 {
				t.Fatalf("%s/%d made no progress", d, mix)
			}
		}
	}
}

func TestOnePipeInsertBeatsFencedBaseline(t *testing.T) {
	// Fig. 16: removing the write-write fence improves insert throughput
	// (paper: 1.9x unreplicated).
	sp := run(deploy(t, DesignOnePipe, MixInsert, 1))
	sb := run(deploy(t, DesignBase, MixInsert, 1))
	ratio := float64(sp.Ops) / float64(sb.Ops)
	if ratio < 1.2 {
		t.Fatalf("1Pipe/base insert ratio %.2f, want fence removal to win", ratio)
	}
}

func TestReplicatedLookupScalesOnlyWithOnePipe(t *testing.T) {
	// Fig. 16: with 1Pipe all replicas serve lookups; leader-follower
	// lookups stay leader-bound.
	p1 := run(deploy(t, DesignOnePipe, MixLookup, 1))
	p3 := run(deploy(t, DesignOnePipe, MixLookup, 3))
	b1 := run(deploy(t, DesignBase, MixLookup, 1))
	b3 := run(deploy(t, DesignBase, MixLookup, 3))
	if float64(p3.Ops) < 0.9*float64(p1.Ops) {
		t.Fatalf("1Pipe lookup dropped with replicas: %d -> %d", p1.Ops, p3.Ops)
	}
	if float64(b3.Ops) > 1.3*float64(b1.Ops) {
		t.Fatalf("leader-follower lookups scaled with replicas (%d -> %d)?", b1.Ops, b3.Ops)
	}
}

func TestReplicatedInsertGapWidens(t *testing.T) {
	// Paper: with 3 replicas, 1Pipe insert throughput is 3.4x baseline
	// (leader CPU replication becomes the bottleneck).
	p3 := run(deploy(t, DesignOnePipe, MixInsert, 3))
	b3 := run(deploy(t, DesignBase, MixInsert, 3))
	p1 := run(deploy(t, DesignOnePipe, MixInsert, 1))
	b1 := run(deploy(t, DesignBase, MixInsert, 1))
	gap1 := float64(p1.Ops) / float64(b1.Ops)
	gap3 := float64(p3.Ops) / float64(b3.Ops)
	if gap3 <= gap1 {
		t.Fatalf("replication should widen the 1Pipe advantage: %.2fx -> %.2fx", gap1, gap3)
	}
}

func TestLookupLatencyOnePipeSlightlyHigher(t *testing.T) {
	// The ordering delay makes 1Pipe lookups a bit slower than raw
	// one-sided reads (paper: ~10% throughput cost).
	sp := run(deploy(t, DesignOnePipe, MixLookup, 1))
	sb := run(deploy(t, DesignBase, MixLookup, 1))
	if sp.Latency.Mean() <= sb.Latency.Mean() {
		t.Fatalf("1Pipe lookup latency %.2fus should exceed baseline %.2fus (reorder wait)",
			sp.Latency.Mean(), sb.Latency.Mean())
	}
}
