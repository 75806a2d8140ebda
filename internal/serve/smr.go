package serve

import (
	"math/rand"

	"onepipe"
	"onepipe/internal/raft"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

// smrState holds the replicated-service side of the tier: R replica
// processes running one state machine each, fed either by the fabric's
// total order directly (SMRFabric: the delivery order IS the log, no
// leader) or by the in-tree Raft core whose RPCs ride best-effort fabric
// scatterings (SMRRaft: the leader sequences and replies).
type smrState struct {
	replicas []int
	machines []*replicaSM
	nodes    []*raft.Node // SMRRaft only
}

// replicaSM is one replica's state machine: the replicated KV plus an
// order-sensitive digest over the command sequence it applied.
type replicaSM struct {
	data    map[uint64]uint64
	lastSeq map[int32]uint32
	cpuBusy sim.Time
	digest  uint64
	count   uint64
}

func (t *Tier) initSMR() {
	r := smrReplicas
	st := &smrState{}
	for p := 0; p < r; p++ {
		st.replicas = append(st.replicas, p)
		st.machines = append(st.machines, &replicaSM{
			data:    make(map[uint64]uint64),
			lastSeq: make(map[int32]uint32),
		})
	}
	t.smr = st
	if t.Cfg.Service != SMRRaft {
		return
	}
	peers := make([]int, r)
	for i := range peers {
		peers[i] = i
	}
	// Serving-grade timers: the management-plane defaults (200us
	// heartbeat, ms elections) would leave the window leaderless.
	rcfg := raft.Config{
		HeartbeatInterval:  20 * sim.Microsecond,
		ElectionTimeoutMin: 150 * sim.Microsecond,
		ElectionTimeoutMax: 300 * sim.Microsecond,
	}
	for i := 0; i < r; i++ {
		i := i
		tr := transportFn(func(m raft.Message) {
			t.msgs = append(t.msgs[:0], onepipe.Message{
				Dst:  onepipe.ProcID(m.To),
				Data: m,
				Size: 64 + 32*len(m.Entries),
			})
			_ = t.cl.Process(m.From).Send(t.msgs)
		})
		rng := rand.New(rand.NewSource(t.Cfg.Seed + int64(i)*104729))
		node := raft.NewNode(i, peers, tr, t.eng, rng, rcfg,
			func(index int, cmd any) { t.raftApply(i, index, cmd) })
		st.nodes = append(st.nodes, node)
	}
}

// transportFn adapts a closure to raft.Transport.
type transportFn func(raft.Message)

func (f transportFn) Send(m raft.Message) { f(m) }

// smrSend issues s's command — the one part of its request. Fabric mode
// scatters it reliably to every replica in one position of the total order;
// Raft mode sends it to the current leader.
func (t *Tier) smrSend(s *session) {
	req := &s.req.parts[0]
	size := partSize(req.Ops)
	dsts := t.smr.replicas
	var opts []onepipe.SendOption
	if t.Cfg.Service == SMRFabric {
		opts = t.sendOpts(true, 0)
	} else {
		// Raft baseline: route to the leader; if the group is mid-election,
		// wait it out.
		lead := t.raftLeader()
		if lead < 0 {
			t.eng.After2(50*sim.Microsecond, sendEv, t, s)
			return
		}
		dsts = dsts[lead : lead+1]
	}
	t.msgs = t.msgs[:0]
	for _, rp := range dsts {
		t.msgs = append(t.msgs, onepipe.Message{Dst: onepipe.ProcID(rp), Data: req, Size: size})
	}
	s.pending = 1 // one reply: the designated responder's, or the leader's
	t.transmit(s, opts)
}

// raftLeader returns the current leader's replica index, or -1.
func (t *Tier) raftLeader() int {
	for i, n := range t.smr.nodes {
		if !n.Stopped() && n.Role() == raft.Leader {
			return i
		}
	}
	return -1
}

// WaitSMRReady advances time until the service can sequence commands
// (Raft: a leader exists; fabric mode is ready immediately).
func (t *Tier) WaitSMRReady(limit sim.Time) bool {
	if t.smr == nil || t.Cfg.Service != SMRRaft {
		return true
	}
	deadline := t.eng.Now() + limit
	for t.raftLeader() < 0 {
		if t.eng.Now() >= deadline {
			return false
		}
		t.cl.Run(10 * sim.Microsecond)
	}
	return true
}

// smrRequest handles a client command delivered at replica p.
func (t *Tier) smrRequest(p int, m *reqMsg) {
	if p >= len(t.smr.machines) {
		return
	}
	if t.Cfg.Service == SMRFabric {
		// The fabric already sequenced this command identically at every
		// replica: apply in delivery order through the CPU station.
		sm := t.smr.machines[p]
		dup := m.Seq <= sm.lastSeq[m.Sess]
		if !dup {
			sm.lastSeq[m.Sess] = m.Seq
		}
		work := len(m.Ops)
		if dup {
			work = 0
		}
		t.smrStation(sm, work, func() {
			if !dup {
				sm.applyCmd(m)
			}
			// The replicas share m. Its embedded reply has one writer:
			// only the designated responder answers, and the fabric
			// delivers the command to it once.
			if int(m.Sess)%len(t.smr.machines) == p {
				t.reply(p, m)
			}
		})
		return
	}
	// Raft: only the leader sequences; followers forward.
	node := t.smr.nodes[p]
	if node.Role() == raft.Leader {
		if _, _, ok := node.Propose(m); ok {
			return
		}
	}
	lead := t.raftLeader()
	if lead < 0 || lead == p {
		// Leaderless (or raced): the client's retry timer re-drives it.
		return
	}
	t.msgs = append(t.msgs[:0], onepipe.Message{Dst: onepipe.ProcID(lead), Data: m, Size: 16 * len(m.Ops)})
	_ = t.cl.Process(p).Send(t.msgs)
}

// raftApply is each node's committed-entry callback: every replica applies
// in log order; the leader answers the client.
func (t *Tier) raftApply(replica, index int, cmd any) {
	m, ok := cmd.(*reqMsg)
	if !ok {
		return
	}
	sm := t.smr.machines[replica]
	dup := m.Seq <= sm.lastSeq[m.Sess]
	if !dup {
		sm.lastSeq[m.Sess] = m.Seq
	}
	work := len(m.Ops)
	if dup {
		work = 0
	}
	leader := t.smr.nodes[replica].Role() == raft.Leader
	t.smrStation(sm, work, func() {
		if !dup {
			sm.applyCmd(m)
		}
		// Whoever led at apply time answers out of m's embedded reply.
		// Across a term change two replicas can each have led when they
		// applied the entry: both write the same bytes (see reply).
		if leader {
			t.reply(replica, m)
		}
	})
}

// smrDeliver routes non-client payloads at a replica (Raft RPCs).
func (t *Tier) smrDeliver(p int, d onepipe.Delivery) {
	m, ok := d.Data.(raft.Message)
	if !ok || t.smr.nodes == nil || p >= len(t.smr.nodes) {
		return
	}
	t.smr.nodes[p].Handle(m)
}

// smrStation is the replica CPU analogue of Tier.station.
func (t *Tier) smrStation(sm *replicaSM, nops int, fn func()) {
	now := t.eng.Now()
	if sm.cpuBusy < now {
		sm.cpuBusy = now
	}
	sm.cpuBusy += sim.Time(nops) * t.Cfg.ServerOpCost
	t.eng.At(sm.cpuBusy, fn)
}

// applyCmd folds one command into the machine: KV effects plus an
// order-sensitive digest (value = 31*value + f(cmd)), so any cross-replica
// ordering difference diverges the digests.
func (sm *replicaSM) applyCmd(m *reqMsg) {
	sm.count++
	h := uint64(uint32(m.Sess))<<32 | uint64(m.Seq)
	for _, op := range m.Ops {
		if op.Kind == workload.OpWrite {
			sm.data[op.Key]++
		}
		h = h*1099511628211 + op.Key
	}
	sm.digest = sm.digest*31 + h
}

// smrDigests returns each replica's (digest, count) folded to one word —
// identical across correct replicas.
func (t *Tier) smrDigests() []uint64 {
	out := make([]uint64, 0, len(t.smr.machines))
	for _, sm := range t.smr.machines {
		out = append(out, sm.digest*2654435761+sm.count)
	}
	return out
}

// SMRApplied returns per-replica applied-command counts (agreement checks).
func (t *Tier) SMRApplied() []uint64 {
	if t.smr == nil {
		return nil
	}
	out := make([]uint64, 0, len(t.smr.machines))
	for _, sm := range t.smr.machines {
		out = append(out, sm.count)
	}
	return out
}

// SMRDigest returns replica r's order-sensitive state digest.
func (t *Tier) SMRDigest(r int) uint64 {
	return t.smr.machines[r].digest
}
