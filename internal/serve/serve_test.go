package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"onepipe"
	"onepipe/internal/kvstore"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

func testCluster() *onepipe.Cluster {
	return onepipe.NewCluster(onepipe.Defaults()) // 2 pods, 8 hosts, 1 proc/host
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Clients = 64
	cfg.Keys = 1 << 12
	cfg.ThinkTime = 40 * sim.Microsecond
	cfg.Seed = 7
	return cfg
}

// TestKVClosedLoop checks the tier sustains a closed loop: requests
// complete, latency is recorded, server state advances.
func TestKVClosedLoop(t *testing.T) {
	tier := New(testCluster(), smallCfg())
	res := tier.RunLoad(60*sim.Microsecond, 300*sim.Microsecond)
	if res.Delivered == 0 {
		t.Fatalf("no requests completed: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("broken percentiles: %+v", res)
	}
	if tier.AppliedOps() == 0 {
		t.Fatal("servers applied nothing")
	}
	if res.Issued == 0 || tier.Completed() < res.Delivered {
		t.Fatalf("accounting broken: %+v completed=%d", res, tier.Completed())
	}
}

// TestTxnMix smoke-checks the tpcc-style service.
func TestTxnMix(t *testing.T) {
	cfg := smallCfg()
	cfg.Service = Txn
	tier := New(testCluster(), cfg)
	res := tier.RunLoad(60*sim.Microsecond, 300*sim.Microsecond)
	if res.Delivered == 0 || tier.AppliedOps() == 0 {
		t.Fatalf("txn service idle: %+v applied=%d", res, tier.AppliedOps())
	}
}

// TestReplayDeterminism pins the acceptance criterion: two fresh clusters
// under the same config produce byte-identical client request/response
// logs, delivered counts and server state digests.
func TestReplayDeterminism(t *testing.T) {
	type out struct {
		log       []byte
		digest    uint64
		delivered int
	}
	run := func() out {
		cfg := smallCfg()
		cfg.RecordLog = true
		tier := New(testCluster(), cfg)
		res := tier.RunLoad(60*sim.Microsecond, 300*sim.Microsecond)
		return out{log: tier.Log(), digest: tier.StateDigest(), delivered: res.Delivered}
	}
	base, got := run(), run()
	if len(base.log) == 0 {
		t.Fatal("empty request/response log")
	}
	if got.delivered != base.delivered {
		t.Fatalf("replay delivered %d != %d", got.delivered, base.delivered)
	}
	if got.digest != base.digest {
		t.Fatalf("replay state digest %x != %x", got.digest, base.digest)
	}
	if !bytes.Equal(got.log, base.log) {
		t.Fatalf("replay request/response log differs (len %d vs %d)", len(got.log), len(base.log))
	}
}

// replayTxns feeds a fixed transaction list, then pads with read-only
// no-ops (reads never change versions, so the digest is unaffected).
type replayTxns struct {
	list [][]workload.Op
	i    int
}

func (r *replayTxns) Next() []workload.Op {
	if r.i < len(r.list) {
		ops := r.list[r.i]
		r.i++
		return ops
	}
	return []workload.Op{{Kind: workload.OpRead, Key: 0}}
}

// TestKVMatchesLegacyKVStore pins the serve tier's degenerate config —
// every proc both owner and frontend, one session per proc, pipeline depth
// one — against the legacy internal/kvstore harness: the same per-client
// transaction lists must leave byte-identical (owner, key, version) state
// in both.
func TestKVMatchesLegacyKVStore(t *testing.T) {
	const procs, perClient = 8, 6
	keys := uint64(1 << 10)
	lists := make([][][]workload.Op, procs)
	for c := range lists {
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		gen := workload.NewTxnGen(rng, workload.NewUniform(rng, keys), 2, 0.5)
		for i := 0; i < perClient; i++ {
			lists[c] = append(lists[c], gen.Next())
		}
	}

	// Serving tier, run to completion.
	scfg := Config{
		Service:      KV,
		Clients:      procs,
		Keys:         keys,
		ThinkTime:    5 * sim.Microsecond,
		ServerOpCost: 300 * sim.Nanosecond,
		MaxRequests:  perClient,
		Seed:         1,
		Txns: func(sess int) workload.TxnSource {
			return &replayTxns{list: lists[sess]}
		},
	}
	tier := New(testCluster(), scfg)
	if !tier.RunToCompletion(50 * sim.Millisecond) {
		t.Fatal("serve tier did not complete the fixed transaction lists")
	}
	if got := tier.Completed(); got != procs*perClient {
		t.Fatalf("serve completed %d requests, want %d", got, procs*perClient)
	}

	// Legacy harness over the same lists (pipeline depth 1).
	kcfg := kvstore.DefaultConfig()
	kcfg.Keys = keys
	kcfg.Outstanding = 1
	kcfg.Txns = func(client int, _ *rand.Rand) workload.TxnSource {
		return &replayTxns{list: lists[client]}
	}
	kcl := onepipe.NewCluster(onepipe.Defaults())
	st := kvstore.New(kcl.Core(), kvstore.Mode1Pipe, kcfg)
	st.Run(500*sim.Microsecond, 2*sim.Millisecond)

	if sd, kd := tier.StateDigest(), st.StateDigest(); sd != kd {
		t.Fatalf("serve state digest %x != legacy kvstore digest %x", sd, kd)
	}
}

// TestSMRFabricAgreement: with the fabric's delivery order as the log,
// every replica applies the identical command sequence.
func TestSMRFabricAgreement(t *testing.T) {
	cfg := smallCfg()
	cfg.Service = SMRFabric
	cfg.Replicas = 3
	cfg.Clients = 16
	cfg.MaxRequests = 5
	cfg.ThinkTime = 10 * sim.Microsecond
	tier := New(testCluster(), cfg)
	if !tier.RunToCompletion(50 * sim.Millisecond) {
		t.Fatal("smr-fabric sessions did not complete")
	}
	counts := tier.SMRApplied()
	for r := 1; r < len(counts); r++ {
		if counts[r] != counts[0] {
			t.Fatalf("replica %d applied %d commands, replica 0 applied %d", r, counts[r], counts[0])
		}
		if tier.SMRDigest(r) != tier.SMRDigest(0) {
			t.Fatalf("replica %d state digest diverged", r)
		}
	}
	if counts[0] != uint64(cfg.Clients*cfg.MaxRequests) {
		t.Fatalf("applied %d commands, want %d", counts[0], cfg.Clients*cfg.MaxRequests)
	}
}

// TestSMRRaftAgreement: the Raft baseline reaches the same cross-replica
// agreement (commands applied in log order everywhere, leader replies).
func TestSMRRaftAgreement(t *testing.T) {
	cfg := smallCfg()
	cfg.Service = SMRRaft
	cfg.Replicas = 3
	cfg.Clients = 16
	cfg.MaxRequests = 5
	cfg.ThinkTime = 10 * sim.Microsecond
	tier := New(testCluster(), cfg)
	if !tier.WaitSMRReady(5 * sim.Millisecond) {
		t.Fatal("raft group elected no leader")
	}
	if !tier.RunToCompletion(50 * sim.Millisecond) {
		t.Fatal("smr-raft sessions did not complete")
	}
	counts := tier.SMRApplied()
	want := uint64(cfg.Clients * cfg.MaxRequests)
	for r := range counts {
		if counts[r] != want {
			t.Fatalf("replica %d applied %d commands, want %d", r, counts[r], want)
		}
		if tier.SMRDigest(r) != tier.SMRDigest(0) {
			t.Fatalf("replica %d state digest diverged", r)
		}
	}
}

// TestFrontendCrashUnderLoad is the serve-mode fault scenario: killing a
// pure-frontend host mid-load stops its sessions but the rest of the tier
// keeps serving — and the whole faulted run replays deterministically.
func TestFrontendCrashUnderLoad(t *testing.T) {
	run := func() (int, int, uint64) {
		cfg := smallCfg()
		cfg.Servers = 4 // procs 0-3 own shards; hosts 4-7 are pure frontends
		cfg.Clients = 48
		cfg.RetryTimeout = 60 * sim.Microsecond
		cl := testCluster()
		tier := New(cl, cfg)
		tier.Start()
		cl.Run(100 * sim.Microsecond)
		cl.KillHost(6)
		tier.StartMeasure()
		cl.Run(300 * sim.Microsecond)
		res := tier.StopMeasure()
		return res.Delivered, tier.Completed(), tier.StateDigest()
	}
	d1, c1, g1 := run()
	if d1 == 0 {
		t.Fatal("tier stopped serving after a frontend crash")
	}
	d2, c2, g2 := run()
	if d1 != d2 || c1 != c2 || g1 != g2 {
		t.Fatalf("faulted run not deterministic: (%d,%d,%x) vs (%d,%d,%x)", d1, c1, g1, d2, c2, g2)
	}
}
