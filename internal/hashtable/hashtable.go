// Package hashtable implements the §7.3.3 remote data structure: a
// distributed hash table whose buckets hold linked lists of KV pairs,
// accessed by clients with one-sided read/write/CAS operations.
//
// An insert writes the KV pair and then updates the bucket head pointer —
// a write-after-write hazard. The baseline client must fence between the
// two (wait a full RTT); the 1Pipe client puts both writes in one
// scattering, because total order makes the fence unnecessary (§2.2.1).
// With replication, 1Pipe scatters writes to all replicas and lets every
// replica serve lookups, while the leader-follower baseline funnels both
// writes and (for serializability) lookups through the leader.
package hashtable

import (
	"math/rand"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// Design selects the access protocol.
type Design uint8

const (
	// DesignOnePipe orders all operations with 1Pipe timestamps.
	DesignOnePipe Design = iota
	// DesignBase uses fenced one-sided ops with leader-follower
	// replication.
	DesignBase
)

func (d Design) String() string {
	if d == DesignOnePipe {
		return "1Pipe"
	}
	return "base"
}

// OpMix selects the measured workload.
type OpMix uint8

const (
	// MixInsert measures inserts only; MixLookup lookups only.
	MixInsert OpMix = iota
	MixLookup
)

// The paper's deployment (16 clients, 16 shards) and the serving costs, the
// same in every run; Fig. 16 sweeps only the replica count.
const (
	// Clients and shards partition the process space: processes
	// [0,Clients) are clients; servers follow.
	Clients = 16
	shards  = 16
	// buckets per shard.
	buckets = 1 << 16
	// outstanding is the closed-loop depth per client. Moderate pipelining
	// keeps lookups latency-bound (the fence removal is a latency win for
	// inserts) while the serving cost makes replicated-write amplification
	// visible. See EXPERIMENTS.md for how these regimes map onto Fig. 16's
	// claims.
	outstanding = 8
	// nicOpCost models the server-side cost of serving a one-sided
	// operation (NIC processing, no CPU involvement).
	nicOpCost = 300 * sim.Nanosecond
	// leaderCPUCost models the leader's software replication cost per op.
	leaderCPUCost = 2 * sim.Microsecond
	seed          = 1
)

// Stats is one run's measurement.
type Stats struct {
	Ops     uint64
	Latency stats.Sample
	Window  sim.Time
}

// OpsPerClientPerSec returns per-client throughput.
func (s *Stats) OpsPerClientPerSec(clients int) float64 {
	if s.Window == 0 {
		return 0
	}
	return float64(s.Ops) / s.Window.Seconds() / float64(clients)
}

// Table is a deployed hash table benchmark.
type Table struct {
	Design Design
	Mix    OpMix
	Stats  Stats
	cl     *core.Cluster
	nodes  []*node
	// replicaProcs[s] lists shard s's replica processes, leader first.
	replicaProcs [][]netsim.ProcID
	measuring    bool
}

type node struct {
	tb   *Table
	proc *core.Proc
	rng  *rand.Rand
	keys *workload.Uniform
	nic  sim.Station
	cpu  sim.Station
	// Bucket state: head pointer version per bucket, on servers.
	heads map[uint64]uint64
	rr    int // round-robin replica selector for lookups
}

// op is one client operation's state.
type op struct {
	client  *node
	insert  bool
	shard   int
	bucket  uint64
	started sim.Time
	stage   int
	pending int
}

// Message payloads.
type writeKV struct {
	o      *op
	bucket uint64
}
type casPtr struct {
	o      *op
	bucket uint64
}
type readReq struct {
	o      *op
	bucket uint64
}
type reply struct {
	o *op
}
type replicate struct {
	bucket uint64
}

// New deploys the benchmark with the given replicas per shard. The cluster
// must have at least Clients + shards*replicas processes.
func New(cl *core.Cluster, design Design, mix OpMix, replicas int) *Table {
	tb := &Table{Design: design, Mix: mix, cl: cl}
	np := len(cl.Procs)
	for s := 0; s < shards; s++ {
		set := make([]netsim.ProcID, 0, replicas)
		for r := 0; r < replicas; r++ {
			set = append(set, netsim.ProcID(Clients+(s+r*shards)%(np-Clients)))
		}
		tb.replicaProcs = append(tb.replicaProcs, set)
	}
	for i, p := range cl.Procs {
		rng := rand.New(rand.NewSource(seed + int64(i)*31337))
		n := &node{
			tb: tb, proc: p, rng: rng,
			keys:  workload.NewUniform(rng, buckets*shards),
			heads: make(map[uint64]uint64),
		}
		tb.nodes = append(tb.nodes, n)
		p.OnDeliver = n.onDeliver
		p.OnRaw = n.onRaw
	}
	return tb
}

// Run drives the closed loop and returns window stats.
func (tb *Table) Run(warmup, window sim.Time) *Stats {
	eng := tb.cl.Net.Eng
	for c := 0; c < Clients; c++ {
		for i := 0; i < outstanding; i++ {
			tb.nodes[c].startOp()
		}
	}
	eng.RunFor(warmup)
	tb.measuring = true
	tb.Stats.Window = window
	eng.RunFor(window)
	tb.measuring = false
	return &tb.Stats
}

func (n *node) startOp() {
	key := n.keys.Next()
	o := &op{
		client:  n,
		insert:  n.tb.Mix == MixInsert,
		shard:   int(key % shards),
		bucket:  key,
		started: n.tb.cl.Net.Eng.Now(),
	}
	n.issue(o)
}

func (n *node) issue(o *op) {
	if n.tb.Design == DesignOnePipe {
		if o.insert {
			n.insertOnePipe(o)
		} else {
			n.lookupOnePipe(o)
		}
	} else {
		if o.insert {
			n.insertBase(o)
		} else {
			n.lookupBase(o)
		}
	}
}

func (n *node) finish(o *op) {
	tb := n.tb
	if tb.measuring {
		tb.Stats.Ops++
		tb.Stats.Latency.Add(float64(tb.cl.Net.Eng.Now()-o.started) / 1000)
	}
	n.startOp()
}

// serveNIC models a one-sided operation (no server CPU).
func (n *node) serveNIC(fn func()) {
	eng := n.tb.cl.Net.Eng
	eng.At(n.nic.Serve(eng.Now(), nicOpCost), fn)
}

// serveCPU models leader software processing.
func (n *node) serveCPU(cost sim.Time, fn func()) {
	eng := n.tb.cl.Net.Eng
	eng.At(n.cpu.Serve(eng.Now(), cost), fn)
}

// ----- 1Pipe design -----

// insertOnePipe sends the KV write and the pointer update in ONE
// best-effort scattering to every replica: total order removes the fence,
// and all replicas apply the same sequence.
func (n *node) insertOnePipe(o *op) {
	reps := n.tb.replicaProcs[o.shard]
	msgs := make([]core.Message, 0, 2*len(reps))
	for _, r := range reps {
		msgs = append(msgs,
			core.Message{Dst: r, Data: writeKV{o: o, bucket: o.bucket}, Size: 64},
			core.Message{Dst: r, Data: casPtr{o: o, bucket: o.bucket}, Size: 32},
		)
	}
	o.pending = 2 * len(reps)
	if n.proc.Send(msgs) != nil {
		n.tb.cl.Net.Eng.After(5*sim.Microsecond, func() { n.issue(o) })
	}
}

// lookupOnePipe reads the bucket pointer then the KV pair, each a
// 1Pipe-ordered read served by ANY replica (all replicas hold the same
// ordered state).
func (n *node) lookupOnePipe(o *op) {
	reps := n.tb.replicaProcs[o.shard]
	n.rr++
	target := reps[n.rr%len(reps)]
	o.pending = 1
	if n.proc.Send([]core.Message{{Dst: target, Data: readReq{o: o, bucket: o.bucket}, Size: 32}}) != nil {
		n.tb.cl.Net.Eng.After(5*sim.Microsecond, func() { n.issue(o) })
	}
}

// onDeliver serves 1Pipe-ordered operations at replicas.
func (n *node) onDeliver(d core.Delivery) {
	switch m := d.Data.(type) {
	case writeKV:
		n.serveNIC(func() {
			n.heads[m.bucket] = n.heads[m.bucket] // slot write (modeled)
			n.proc.SendRaw(d.Src, reply{o: m.o}, 8)
		})
	case casPtr:
		n.serveNIC(func() {
			n.heads[m.bucket]++
			n.proc.SendRaw(d.Src, reply{o: m.o}, 8)
		})
	case readReq:
		n.serveNIC(func() {
			_ = n.heads[m.bucket]
			n.proc.SendRaw(d.Src, reply{o: m.o}, 8)
		})
	}
}

// ----- baseline design -----

// insertBase fences: write the KV pair to the leader, wait for the
// completion, then update the pointer; the leader replicates in software.
func (n *node) insertBase(o *op) {
	o.stage = 1
	leader := n.tb.replicaProcs[o.shard][0]
	n.proc.SendRaw(leader, writeKV{o: o, bucket: o.bucket}, 64)
}

// lookupBase reads pointer then KV at the leader only (followers cannot
// serve serializable reads under leader-follower replication).
func (n *node) lookupBase(o *op) {
	o.stage = 1
	leader := n.tb.replicaProcs[o.shard][0]
	n.proc.SendRaw(leader, readReq{o: o, bucket: o.bucket}, 32)
}

// onRaw handles baseline server ops and all client-side replies.
func (n *node) onRaw(src netsim.ProcID, data any) {
	switch m := data.(type) {
	case writeKV:
		n.baseServeWrite(src, m.o, m.bucket)
	case casPtr:
		n.baseServeWrite(src, m.o, m.bucket)
	case readReq:
		n.serveNIC(func() {
			_ = n.heads[m.bucket]
			n.proc.SendRaw(src, reply{o: m.o}, 8)
		})
	case replicate:
		n.serveNIC(func() { n.heads[m.bucket]++ })
	case reply:
		n.clientReply(m.o)
	}
}

// baseServeWrite applies a write at the leader and replicates to
// followers in software before acknowledging.
func (n *node) baseServeWrite(src netsim.ProcID, o *op, bucket uint64) {
	reps := n.tb.replicaProcs[o.shard]
	cost := nicOpCost
	if len(reps) > 1 {
		// Leader CPU copies the update to each follower.
		cost = leaderCPUCost * sim.Time(len(reps)-1)
	}
	n.serveCPU(cost, func() {
		n.heads[bucket]++
		for _, f := range reps[1:] {
			n.proc.SendRaw(f, replicate{bucket: bucket}, 64)
		}
		n.proc.SendRaw(src, reply{o: o}, 8)
	})
}

// clientReply advances a client operation.
func (n *node) clientReply(o *op) {
	if o.client != n {
		return
	}
	switch n.tb.Design {
	case DesignOnePipe:
		o.pending--
		if o.pending > 0 {
			return
		}
		if !o.insert && o.stage == 0 {
			// Second dependent read: the KV pair itself.
			o.stage = 1
			reps := n.tb.replicaProcs[o.shard]
			n.rr++
			target := reps[n.rr%len(reps)]
			o.pending = 1
			n.proc.Send([]core.Message{{Dst: target, Data: readReq{o: o, bucket: o.bucket}, Size: 32}})
			return
		}
		n.finish(o)
	case DesignBase:
		if o.insert {
			if o.stage == 1 {
				// Fence passed: now the pointer update.
				o.stage = 2
				leader := n.tb.replicaProcs[o.shard][0]
				n.proc.SendRaw(leader, casPtr{o: o, bucket: o.bucket}, 32)
				return
			}
			n.finish(o)
		} else {
			if o.stage == 1 {
				o.stage = 2
				leader := n.tb.replicaProcs[o.shard][0]
				n.proc.SendRaw(leader, readReq{o: o, bucket: o.bucket}, 32)
				return
			}
			n.finish(o)
		}
	}
}
