package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"onepipe"
	"onepipe/internal/kvstore"
	"onepipe/internal/netsim"
	"onepipe/internal/race"
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
// every replica applies the identical command sequence — on lossless links,
// and under 1e-3 link loss with lost replies re-requested.
func TestSMRFabricAgreement(t *testing.T) {
	for _, loss := range []float64{0, 1e-3} {
		cfg := smallCfg()
		cfg.Service = SMRFabric
		cfg.Clients = 16
		cfg.MaxRequests = 5
		cfg.ThinkTime = 10 * sim.Microsecond
		ccfg := onepipe.Defaults()
		if loss > 0 {
			ccfg.Impair = netsim.UniformLoss(loss)
			cfg.RetryTimeout = 200 * sim.Microsecond
		}
		tier := New(onepipe.NewCluster(ccfg), cfg)
		if !tier.RunToCompletion(50 * sim.Millisecond) {
			t.Fatalf("loss %g: smr-fabric sessions did not complete", loss)
		}
		counts := tier.SMRApplied()
		for r := 1; r < len(counts); r++ {
			if counts[r] != counts[0] {
				t.Fatalf("loss %g: replica %d applied %d commands, replica 0 applied %d", loss, r, counts[r], counts[0])
			}
			if tier.SMRDigest(r) != tier.SMRDigest(0) {
				t.Fatalf("loss %g: replica %d state digest diverged", loss, r)
			}
		}
		if counts[0] != uint64(cfg.Clients*cfg.MaxRequests) {
			t.Fatalf("loss %g: applied %d commands, want %d", loss, counts[0], cfg.Clients*cfg.MaxRequests)
		}
	}
}

// TestSMRRaftAgreement: the Raft baseline reaches the same cross-replica
// agreement (commands applied in log order everywhere, leader replies).
func TestSMRRaftAgreement(t *testing.T) {
	cfg := smallCfg()
	cfg.Service = SMRRaft
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

// TestParentPins compares the tier with values captured at commit 03043d8 —
// the last one before a request became a single object — not with a second
// run of the same code, which a mistake that both runs share passes (every
// session created with id 0 passed the replay tests). Each row is 100 us of
// load, an optional host kill, then a 300 us window; the pins are the FNV-1a
// of the request log, the state digest, the window's delivered and issued
// counts and the engine's executed-event count. They move only with a
// deliberate change to what the tier sends, and then all of them are
// recaptured together on the commit that makes it. kv-retry's were
// recaptured when a request began to close only once every part had a
// reply: before, an owner's replies to the first attempt and to its resend
// counted twice and could close a request whose other part was lost.
// smr-raft's event count alone fell, by 292 from 54 872, when raft's timers
// became sim.Timers: those were the no-op firings of its re-armed
// election and heartbeat timers.
func TestParentPins(t *testing.T) {
	conflictAware := func() *onepipe.Cluster {
		c := onepipe.Defaults()
		c.Delivery = onepipe.DeliverConflictAware
		return onepipe.NewCluster(c)
	}
	rows := []struct {
		name              string
		edit              func(*Config)
		cluster           func() *onepipe.Cluster
		kill              int
		log, state        uint64
		delivered, issued int
		events            uint64
	}{
		{"kv", func(*Config) {}, testCluster, -1,
			0x6724988549e9bd8e, 0xa9a6cf2ff76e4944, 262, 268, 58824},
		{"txn", func(c *Config) {
			c.Service = Txn
			c.Conflicts = true
			c.BatchWindow = 2 * sim.Microsecond
		}, conflictAware, -1,
			0x40123e7035518b9f, 0x11a3868d098f7420, 324, 319, 111874},
		{"kv-crash", func(c *Config) { // five retries fire, no owner sees a duplicate
			c.Servers = 4
			c.Clients = 48
			c.RetryTimeout = 60 * sim.Microsecond
		}, testCluster, 6,
			0x1bb6bec6be24e068, 0xefb77968c015b980, 143, 149, 41982},
		{"kv-retry", func(c *Config) { // timeout below the p50: 627 retries, 1262 duplicates at the owners
			c.RetryTimeout = 10 * sim.Microsecond
		}, testCluster, -1,
			0xb70fc29212e08d3e, 0x5e2a38e58eedde36, 280, 746, 120641},
		{"smr-fabric", func(c *Config) {
			c.Service = SMRFabric
		}, testCluster, -1,
			0x3c464691861e9ac6, 0x585da39ceaae9f98, 252, 260, 60086},
		{"smr-raft", func(c *Config) {
			c.Service = SMRRaft
		}, testCluster, -1,
			0x207de236d1b93cc, 0x44aabdb39f0b4bd, 206, 198, 54580},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.RecordLog = true
			r.edit(&cfg)
			cl := r.cluster()
			tier := New(cl, cfg)
			if !tier.WaitSMRReady(5 * sim.Millisecond) {
				t.Fatal("raft group elected no leader")
			}
			tier.Start()
			cl.Run(100 * sim.Microsecond)
			if r.kill >= 0 {
				cl.KillHost(r.kill)
			}
			tier.StartMeasure()
			cl.Run(300 * sim.Microsecond)
			res := tier.StopMeasure()
			h := fnv.New64a()
			h.Write(tier.Log())
			if got := h.Sum64(); got != r.log {
				t.Errorf("request log digest %#x, parent %#x", got, r.log)
			}
			if got := tier.StateDigest(); got != r.state {
				t.Errorf("state digest %#x, parent %#x", got, r.state)
			}
			if res.Delivered != r.delivered || res.Issued != r.issued {
				t.Errorf("delivered/issued %d/%d, parent %d/%d", res.Delivered, res.Issued, r.delivered, r.issued)
			}
			if got := cl.Network().ExecutedEvents(); got != r.events {
				t.Errorf("executed events %d, parent %d", got, r.events)
			}
		})
	}
}

// pairTxns is a request of two ops on consecutive keys — two distinct
// owners whenever there are at least two — drawn without allocating.
type pairTxns struct{ ops [2]workload.Op }

func (p *pairTxns) Next() []workload.Op { return p.ops[:] }

// pairCfg is smallCfg with every session issuing pairTxns requests; every
// other session's second op is a write, so both service classes are sent.
func pairCfg() Config {
	cfg := smallCfg()
	cfg.Txns = func(sess int) workload.TxnSource {
		p := &pairTxns{}
		p.ops[0] = workload.Op{Kind: workload.OpRead, Key: uint64(2 * sess)}
		p.ops[1] = workload.Op{Kind: workload.OpRead, Key: uint64(2*sess + 1)}
		if sess%2 == 1 {
			p.ops[1].Kind, p.ops[1].Value = workload.OpWrite, 64
		}
		return p
	}
	return cfg
}

// TestServeRequestAllocs pins what a request costs the heap end to end on a
// warm tier: nothing. The request object comes off the tier's free list, the
// messages are built in its send buffer, and there is nothing for the parts,
// the replies, the station and think events or the send options, and
// nothing in core: the 2-way request scattering with its slabs and the two
// reply scatterings come off the fabric's free lists. The request was the
// one allocation left while core kept the caller's message slice.
func TestServeRequestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cl := testCluster()
	tier := New(cl, pairCfg())
	tier.Start()
	cl.Run(2 * sim.Millisecond) // warm: connections, pools, event queue, owner maps
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	done := tier.Completed()
	runtime.ReadMemStats(&before)
	cl.Run(3 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	done = tier.Completed() - done
	if done < 2000 {
		t.Fatalf("only %d requests completed in the window", done)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(done)
	t.Logf("%d requests, %.3f allocs each", done, got)
	// The runtime's own background objects add 0.01–0.02.
	const want = 0
	if got < want || got > want+0.05 {
		t.Errorf("%.3f allocs per request, want %d", got, want)
	}
}

// TestRecycledRequestNeverLive: a request on the tier's free list is never
// one a session's s.req still points at, never listed twice and never a
// loss-retry copy, across the retry path (a timeout near the p50, so that
// requests both close on their first attempt and are resent), a crashed
// host under retries and the SMR services, which recycle nothing.
func TestRecycledRequestNeverLive(t *testing.T) {
	rows := []struct {
		name     string
		edit     func(*Config)
		kill     int
		recycles bool
	}{
		{"kv", func(*Config) {}, -1, true},
		{"kv-retry", func(c *Config) { c.RetryTimeout = 20 * sim.Microsecond }, -1, true},
		{"kv-crash", func(c *Config) {
			c.Servers = 4
			c.Clients = 48
			c.RetryTimeout = 60 * sim.Microsecond
		}, 6, true},
		{"txn", func(c *Config) { c.Service = Txn }, -1, true},
		{"smr-fabric", func(c *Config) { c.Service = SMRFabric }, -1, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := smallCfg()
			r.edit(&cfg)
			cl := testCluster()
			tier := New(cl, cfg)
			tier.Start()
			onFree := make(map[*request]bool)
			reused, resent := 0, 0
			for us := 0; us < 400; us++ {
				if us == 100 && r.kill >= 0 {
					cl.KillHost(r.kill)
				}
				before := len(tier.free)
				cl.Run(sim.Microsecond)
				if len(tier.free) < before {
					reused++
				}
				clear(onFree)
				for _, q := range tier.free {
					if onFree[q] {
						t.Fatalf("at %d us: a request is on the free list twice", us)
					}
					if q.resent {
						t.Fatalf("at %d us: a loss-retry copy was recycled", us)
					}
					onFree[q] = true
				}
				for _, s := range tier.sessions {
					if s.req != nil && onFree[s.req] {
						t.Fatalf("at %d us: session %d's request is on the free list", us, s.id)
					}
					if s.req != nil && s.req.resent {
						resent++
					}
				}
			}
			if tier.Completed() == 0 {
				t.Fatal("no request completed")
			}
			if got := reused > 0; got != r.recycles {
				t.Fatalf("requests taken off the free list in %d steps, want recycling %v", reused, r.recycles)
			}
			if cfg.RetryTimeout > 0 && resent == 0 {
				t.Fatal("the loss-retry path never resent a request")
			}
		})
	}
}

// TestIdleSessionFootprint: a session that is not waiting for replies holds
// nothing request-sized, and the two structs keep the sizes their comments
// state.
func TestIdleSessionFootprint(t *testing.T) {
	cl := testCluster()
	tier := New(cl, smallCfg())
	tier.Start()
	cl.Run(200 * sim.Microsecond)
	for p := 0; p < cl.NumProcesses(); p++ {
		tier.StopFrontend(p)
	}
	cl.Run(200 * sim.Microsecond) // drain what was outstanding
	if tier.Completed() == 0 {
		t.Fatal("tier idle before the drain")
	}
	for _, s := range tier.sessions {
		if s.req != nil {
			t.Fatalf("drained session %d still holds a request", s.id)
		}
	}
	if got := unsafe.Sizeof(session{}); got > 72 {
		t.Errorf("session is %d B, want <= 72", got)
	}
	if got := unsafe.Sizeof(request{}); got > 224 {
		t.Errorf("request is %d B, want within the 224 B size class", got)
	}
}

// TestRetryTakesFreshRequest: once Process.Send has accepted an attempt,
// its request belongs to the fabric and the owners. The retry path must
// send a copy, leave the first attempt — ops, parts with the owners' state
// and replies — exactly as it was, and keep the copy off the free list.
func TestRetryTakesFreshRequest(t *testing.T) {
	cfg := pairCfg()
	cfg.Clients = 1
	cfg.MaxRequests = 1
	cl := testCluster()
	tier := New(cl, cfg)
	s := tier.sessions[0]
	tier.issue(s)
	first := s.req
	if first == nil || !first.sent || len(first.parts) != 2 {
		t.Fatalf("first attempt not sent as two parts: %+v", first)
	}
	// Run until an owner has answered a part, so the attempt carries
	// owner-side state, but the request is still outstanding.
	for i := 0; first.parts[0].rep.Seq == 0 && first.parts[1].rep.Seq == 0; i++ {
		if i == 100 {
			t.Fatal("no owner replied within 100 us")
		}
		cl.Run(sim.Microsecond)
	}
	if s.req != first || s.pending == 0 {
		t.Fatal("request completed before the retry could be staged")
	}
	ops := append([]workload.Op(nil), first.ops...)
	parts := append([]reqMsg(nil), first.parts...)

	tier.send(s) // what the loss-retry timer does

	if s.req == first {
		t.Fatal("the retry reused a request the fabric and the owners still hold")
	}
	if !reflect.DeepEqual(first.ops, ops) || !reflect.DeepEqual(first.parts, parts) {
		t.Fatal("the retry rewrote the first attempt")
	}
	if !reflect.DeepEqual(s.req.ops, ops) || len(s.req.parts) != 2 || s.req.parts[0].rep.Seq != 0 || !s.req.resent {
		t.Fatalf("the retry is not a clean copy of the request: %+v", s.req)
	}
	for i := range s.req.parts {
		if p, q := &s.req.parts[i], &parts[i]; p.Seq != q.Seq || !reflect.DeepEqual(p.Ops, q.Ops) {
			t.Fatalf("retry part %d differs from the first attempt's", i)
		}
	}
	cl.Run(100 * sim.Microsecond)
	if s.done != 1 || s.req != nil {
		t.Fatalf("after both attempts settled: done=%d req=%v, want one completion", s.done, s.req)
	}
	if len(tier.free) != 0 {
		t.Fatalf("%d requests recycled, want none: both attempts may still be answered", len(tier.free))
	}
}

// TestTxnsSliceNotMutated: grouping by owner reorders a request's ops in
// place, so a Config.Txns generator's lists are copied first.
func TestTxnsSliceNotMutated(t *testing.T) {
	// Owners 0,1,0,1 and 3,2,3 under key%8: grouping reorders both.
	lists := [][]workload.Op{
		{{Kind: workload.OpRead, Key: 0}, {Kind: workload.OpWrite, Key: 1, Value: 8}, {Kind: workload.OpRead, Key: 8}, {Kind: workload.OpRead, Key: 9}},
		{{Kind: workload.OpWrite, Key: 3, Value: 8}, {Kind: workload.OpRead, Key: 2}, {Kind: workload.OpRead, Key: 11}},
	}
	want := make([][]workload.Op, len(lists))
	for i, l := range lists {
		want[i] = append([]workload.Op(nil), l...)
	}
	cfg := smallCfg()
	cfg.Clients = 1
	cfg.MaxRequests = len(lists)
	cfg.Txns = func(int) workload.TxnSource { return &replayTxns{list: lists} }
	tier := New(testCluster(), cfg)
	if !tier.RunToCompletion(5 * sim.Millisecond) {
		t.Fatal("fixed transaction list did not complete")
	}
	if tier.AppliedOps() != 7 {
		t.Fatalf("owners applied %d ops, want 7", tier.AppliedOps())
	}
	if !reflect.DeepEqual(lists, want) {
		t.Fatalf("the generator's op lists were reordered: %v", lists)
	}
}

// TestLogLineMatchesFmt: the fmt-free log line is byte-identical to the
// format the benchmark parses.
func TestLogLineMatchesFmt(t *testing.T) {
	for _, c := range []struct {
		sess    int32
		seq     uint32
		at, lat sim.Time
		n       int
	}{
		{0, 0, 0, 0, 0},
		{255, 256, 1, 12174, 2},
		{256, 255, 4600000, 19291, 8},
		{math.MaxInt32, math.MaxUint32, 1234567890123, math.MaxInt32, 12},
	} {
		want := fmt.Sprintf("s=%d q=%d at=%d lat=%d n=%d\n", c.sess, c.seq, c.at, c.lat, c.n)
		if got := string(appendLogLine([]byte("x\n"), c.sess, c.seq, c.at, c.lat, c.n)); got != "x\n"+want {
			t.Errorf("appendLogLine = %q, want %q", got, "x\n"+want)
		}
	}
}

// TestRunToCompletionUnbounded: sessions without a request cap never
// complete, so the tier runs to the limit and says so.
func TestRunToCompletionUnbounded(t *testing.T) {
	tier := New(testCluster(), smallCfg())
	if tier.RunToCompletion(200*sim.Microsecond) || tier.Completed() == 0 {
		t.Fatalf("unbounded run reported complete or did not run (completed %d)", tier.Completed())
	}
}

// TestRetryClosesOnEveryOwner: under loss with the loss-retry timer below
// the round trip, a request closes only once the owner of every part has
// answered, from whichever attempt. A second reply from one owner (its
// answer to the first attempt and to the resend) must not stand in for a
// part whose owner has not answered.
func TestRetryClosesOnEveryOwner(t *testing.T) {
	ocfg := onepipe.Defaults()
	ocfg.Impair = netsim.UniformLoss(0.02)
	cl := onepipe.NewCluster(ocfg)
	cfg := smallCfg()
	cfg.RetryTimeout = 20 * sim.Microsecond
	tier := New(cl, cfg)
	// A reply is embedded in the part it answers, and the part records the
	// process that served it. Reading the owner there, not from the reply's
	// part index, keeps the check independent of the mechanism it tests.
	repOwner := func(m *repMsg) int32 {
		return (*reqMsg)(unsafe.Add(unsafe.Pointer(m), -int(unsafe.Offsetof(reqMsg{}.rep)))).owner
	}
	answered := make([]map[int32]bool, len(tier.sessions))
	for i := range answered {
		answered[i] = make(map[int32]bool)
	}
	completions, missing := 0, 0
	for p := 0; p < cl.NumProcesses(); p++ {
		p := p
		cl.Process(p).OnDeliver(func(d onepipe.Delivery) {
			m, ok := d.Data.(*repMsg)
			if !ok {
				tier.dispatch(p, d)
				return
			}
			s := tier.sessions[m.Sess]
			if m.Seq != s.seq || s.pending == 0 {
				tier.dispatch(p, d)
				return
			}
			got := answered[m.Sess]
			got[repOwner(m)] = true
			var want []int32
			for i := range s.req.parts {
				want = append(want, int32(tier.owner(s.req.parts[i].Ops[0].Key)))
			}
			done := s.done
			tier.dispatch(p, d)
			if s.done == done {
				return
			}
			completions++
			for _, o := range want {
				if !got[o] {
					missing++
					break
				}
			}
			clear(got)
		})
	}
	tier.Start()
	cl.Run(2 * sim.Millisecond)
	t.Logf("%d completions, %d closed with an owner missing", completions, missing)
	if completions < 500 {
		t.Fatalf("only %d completions", completions)
	}
	if missing > 0 {
		t.Errorf("%d of %d requests closed without a reply from every owner", missing, completions)
	}
}
