// Package kvstore implements the distributed transactional key-value store
// of §7.3.1 in three flavors:
//
//   - Mode1Pipe: a transaction of independent KV operations is one 1Pipe
//     scattering (best-effort for read-only, reliable for read-write /
//     write-only). Every server processes operations in timestamp order,
//     so transactions are serializable with no locks and no aborts.
//   - ModeFaRM: the FaRM-style baseline — versioned one-sided reads for
//     read-only transactions, OCC with lock / validate / commit-unlock
//     two-phase commit for writes. Hot keys cause lock conflicts, aborts
//     and retries.
//   - ModeNonTX: the non-transactional upper bound (plain sharded
//     operations with no consistency).
//
// Each process is both a client (transaction initiator) and a server
// (shard owner by key hash); server CPU is modeled as a FIFO station with
// a per-operation cost.
package kvstore

import (
	"math/rand"
	"sort"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// Mode selects the concurrency-control design.
type Mode uint8

const (
	// Mode1Pipe uses 1Pipe scatterings for transactions.
	Mode1Pipe Mode = iota
	// ModeFaRM uses FaRM-style OCC with two-phase commit.
	ModeFaRM
	// ModeNonTX is the non-transactional upper bound.
	ModeNonTX
)

func (m Mode) String() string {
	switch m {
	case Mode1Pipe:
		return "1Pipe"
	case ModeFaRM:
		return "FaRM"
	case ModeNonTX:
		return "NonTX"
	}
	return "?"
}

// Class is a transaction's read/write classification.
type Class uint8

const (
	// RO is read-only, WO write-only, WR mixed.
	RO Class = iota
	WO
	WR
)

// Config parameterizes a run.
type Config struct {
	// Keys is the keyspace size.
	Keys uint64
	// Zipf selects the YCSB-style skewed distribution (theta 0.99);
	// otherwise keys are uniform.
	Zipf bool
	// OpsPerTxn and WriteFrac shape transactions: each op is a write with
	// probability WriteFrac.
	OpsPerTxn int
	WriteFrac float64
	// ROFrac, when positive, forces that fraction of transactions to be
	// all-reads regardless of WriteFrac (the paper's "50% of TXNs are
	// read-only" and "95% RO" workloads).
	ROFrac float64
	// Outstanding is the closed-loop pipeline depth per client.
	Outstanding int
	// Txns, when non-nil, overrides the per-client transaction source
	// (default: workload.NewTxnGen over the Zipf/Uniform keygen above,
	// sharing the client's RNG). The rng argument is the client's own
	// stream — the ROFrac draw stays on it either way.
	Txns func(client int, rng *rand.Rand) workload.TxnSource
}

// DefaultConfig mirrors the paper's workload defaults: 1M keys, 2 ops per
// transaction, randomly read or write.
func DefaultConfig() Config {
	return Config{
		Keys:      1 << 20,
		OpsPerTxn: 2,
		WriteFrac: 0.5,
		// Deep enough pipelining to saturate server CPU, so throughput
		// reflects per-transaction server work (1 round for 1Pipe, 3-4
		// for FaRM's OCC) rather than client-observed latency.
		Outstanding: 24,
	}
}

// The cost model, the same in every run.
const (
	// serverOpCost is the modeled CPU time per KV operation.
	serverOpCost = 300 * sim.Nanosecond
	// retryTimeout re-issues a transaction whose replies went missing.
	retryTimeout = 300 * sim.Microsecond
	seed         = 1
)

// Stats aggregates a measurement window.
type Stats struct {
	Committed uint64
	Aborted   uint64
	KVOps     uint64
	LatRO     stats.Sample
	LatWO     stats.Sample
	LatWR     stats.Sample
	Window    sim.Time
}

// TxnPerSecPerProc returns committed transactions per second per process.
func (s *Stats) TxnPerSecPerProc(procs int) float64 {
	if s.Window == 0 {
		return 0
	}
	return float64(s.Committed) / s.Window.Seconds() / float64(procs)
}

// OpsPerSec returns total KV operations per second.
func (s *Stats) OpsPerSec() float64 {
	if s.Window == 0 {
		return 0
	}
	return float64(s.KVOps) / s.Window.Seconds()
}

// AbortRate returns aborts per committed transaction.
func (s *Stats) AbortRate() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(s.Committed)
}

type entry struct {
	version  uint64
	lockedBy *txn
}

// txn is one transaction's client-side state.
type txn struct {
	client  *node
	ops     []workload.Op
	class   Class
	started sim.Time
	pending int
	// retry re-solicits replies that went missing (raw RPCs are
	// unacknowledged).
	retry sim.Timer
	// FaRM state.
	phase    int
	versions map[uint64]uint64
	failed   bool
	retries  int
}

// Store is a deployed KVS over a 1Pipe cluster.
type Store struct {
	Mode  Mode
	Cfg   Config
	Stats Stats
	cl    *core.Cluster
	nodes []*node
	// measuring gates stats collection to the measurement window.
	measuring bool
}

type node struct {
	st      *Store
	proc    *core.Proc
	rng     *rand.Rand
	gen     workload.TxnSource
	data    map[uint64]*entry
	cpu     sim.Station
	applied map[*txn]bool
}

// request payloads (passed by reference inside the simulation).
type kvReq struct {
	t   *txn
	ops []workload.Op
}
type kvReply struct {
	t *txn
	n int
}
type farmRead struct {
	t    *txn
	keys []uint64
}
type farmReadReply struct {
	t        *txn
	keys     []uint64
	versions []uint64
	locked   bool
}
type farmLock struct {
	t        *txn
	keys     []uint64
	versions []uint64
	blind    bool
}
type farmLockReply struct {
	t  *txn
	ok bool
}
type farmCommit struct {
	t   *txn
	ops []workload.Op
}
type farmUnlock struct {
	t    *txn
	keys []uint64
}
type nontxReq struct {
	t   *txn
	ops []workload.Op
}
type replay struct {
	t *txn
}

// New deploys the store over an existing cluster.
func New(cl *core.Cluster, mode Mode, cfg Config) *Store {
	st := &Store{Mode: mode, Cfg: cfg, cl: cl}
	for i, p := range cl.Procs {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		var keys workload.KeyGen
		if cfg.Zipf {
			keys = workload.NewZipf(rng, cfg.Keys, 0.99)
		} else {
			keys = workload.NewUniform(rng, cfg.Keys)
		}
		var gen workload.TxnSource
		if cfg.Txns != nil {
			gen = cfg.Txns(i, rng)
		} else {
			gen = workload.NewTxnGen(rng, keys, cfg.OpsPerTxn, cfg.WriteFrac)
		}
		n := &node{
			st: st, proc: p, rng: rng,
			gen:     gen,
			data:    make(map[uint64]*entry),
			applied: make(map[*txn]bool),
		}
		st.nodes = append(st.nodes, n)
		p.OnDeliver = n.onDeliver
		p.OnRaw = n.onRaw
	}
	return st
}

// Run drives the closed-loop workload: warmup, then a measured window.
// It returns the stats for the window.
func (st *Store) Run(warmup, window sim.Time) *Stats {
	eng := st.eng()
	for _, n := range st.nodes {
		for i := 0; i < st.Cfg.Outstanding; i++ {
			n.startTxn()
		}
	}
	eng.RunFor(warmup)
	st.measuring = true
	st.Stats.Window = window
	eng.RunFor(window)
	st.measuring = false
	return &st.Stats
}

func (st *Store) eng() *sim.Engine { return st.cl.Net.Eng }

func (st *Store) owner(key uint64) netsim.ProcID {
	return netsim.ProcID(key % uint64(len(st.nodes)))
}

func classify(ops []workload.Op) Class {
	switch {
	case workload.ReadOnly(ops):
		return RO
	case workload.WriteOnly(ops):
		return WO
	default:
		return WR
	}
}

// serve models server CPU: fn runs after the op clears the FIFO station.
func (n *node) serve(nops int, fn func()) {
	eng := n.st.eng()
	eng.At(n.cpu.Serve(eng.Now(), sim.Time(nops)*serverOpCost), fn)
}

func (n *node) startTxn() {
	t := &txn{client: n, ops: n.gen.Next(), started: n.st.eng().Now()}
	t.retry.Init(n.st.eng(), (*txnRetry)(t))
	if n.st.Cfg.ROFrac > 0 && n.rng.Float64() < n.st.Cfg.ROFrac {
		for i := range t.ops {
			t.ops[i].Kind = workload.OpRead
			t.ops[i].Value = 0
		}
	}
	t.class = classify(t.ops)
	n.issue(t)
}

func (n *node) issue(t *txn) {
	switch n.st.Mode {
	case Mode1Pipe:
		n.issue1Pipe(t)
	case ModeFaRM:
		n.issueFaRM(t)
	case ModeNonTX:
		n.issueNonTX(t)
	}
}

// finish completes a transaction and keeps the closed loop full.
func (n *node) finish(t *txn, committed bool) {
	t.retry.Stop()
	st := n.st
	if st.measuring {
		if committed {
			st.Stats.Committed++
			st.Stats.KVOps += uint64(len(t.ops))
			lat := float64(st.eng().Now()-t.started) / 1000
			switch t.class {
			case RO:
				st.Stats.LatRO.Add(lat)
			case WO:
				st.Stats.LatWO.Add(lat)
			case WR:
				st.Stats.LatWR.Add(lat)
			}
		} else {
			st.Stats.Aborted++
		}
	}
	n.startTxn()
}

// retryLater re-runs the same transaction after an abort (FaRM) with
// truncated binary backoff.
func (n *node) retryLater(t *txn) {
	if n.st.measuring {
		n.st.Stats.Aborted++
	}
	t.retries++
	t.retry.Stop()
	back := sim.Time(1+n.rng.Intn(1<<uint(min(t.retries, 6)))) * sim.Microsecond
	n.st.eng().After(back, func() {
		t.phase = 0
		t.pending = 0
		t.failed = false
		t.versions = nil
		n.issue(t)
	})
}

// txnRetry is a txn's retry-timer handler.
type txnRetry txn

func (r *txnRetry) Fire() {
	t := (*txn)(r)
	t.client.recover(t)
}

// recover re-solicits replies for a transaction stuck on packet loss.
func (n *node) recover(t *txn) {
	switch n.st.Mode {
	case Mode1Pipe:
		// Ask every involved owner to (re)apply or re-reply; 1Pipe's own
		// reliability covers the reliable class, so this mainly replays
		// lost best-effort ops and lost raw replies.
		for _, dst := range t.owners() {
			n.proc.SendRaw(dst, replay{t: t}, 32)
		}
		t.pending = len(t.owners())
		t.retry.Reset(retryTimeout)
	default:
		// FaRM / NonTX: abort and rerun from scratch.
		n.retryLater(t)
	}
}

// StateDigest folds every owner's written (owner, key, version) triples —
// keys sorted, version-0 read-through entries skipped — into one FNV-1a
// digest. The serving tier computes the identical framing, so a
// degenerate-config serve run can be pinned byte-for-byte against this
// legacy harness.
func (st *Store) StateDigest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i, nd := range st.nodes {
		keys := make([]uint64, 0, len(nd.data))
		for k, e := range nd.data {
			if e.version > 0 {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		mix(uint64(i))
		for _, k := range keys {
			mix(k)
			mix(nd.data[k].version)
		}
	}
	return h
}

// opBucket groups a transaction's operations by owner, preserving
// first-seen order so message emission is deterministic.
type opBucket struct {
	owner netsim.ProcID
	ops   []workload.Op
}

func (st *Store) bucketOps(ops []workload.Op) []opBucket {
	var buckets []opBucket
	idx := make(map[netsim.ProcID]int)
	for _, op := range ops {
		o := st.owner(op.Key)
		j, ok := idx[o]
		if !ok {
			j = len(buckets)
			idx[o] = j
			buckets = append(buckets, opBucket{owner: o})
		}
		buckets[j].ops = append(buckets[j].ops, op)
	}
	return buckets
}

// keyBucket is the key-only analogue of opBucket.
type keyBucket struct {
	owner netsim.ProcID
	keys  []uint64
}

func (st *Store) bucketKeys(keys []uint64) []keyBucket {
	var buckets []keyBucket
	idx := make(map[netsim.ProcID]int)
	for _, k := range keys {
		o := st.owner(k)
		j, ok := idx[o]
		if !ok {
			j = len(buckets)
			idx[o] = j
			buckets = append(buckets, keyBucket{owner: o})
		}
		buckets[j].keys = append(buckets[j].keys, k)
	}
	return buckets
}

// owners returns the distinct owner set of t's operations.
func (t *txn) owners() []netsim.ProcID {
	var out []netsim.ProcID
	seen := make(map[netsim.ProcID]bool)
	for _, op := range t.ops {
		o := t.client.st.owner(op.Key)
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}
