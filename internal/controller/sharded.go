package controller

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Sharded distributes the controller across pods — the §6.1 future-work
// design ("future work can distribute the controller to a cluster, each
// of which serves a portion of the network"). Each pod gets its own
// Raft-replicated controller instance handling failures reported against
// that pod's links; a shared core switch's death is reported by the
// adjacent links' pods (each shard resolves its own side). Because the
// §5.2 pipeline's Broadcast step must still reach *every* correct process
// (any host may hold in-flight traffic to the failed one), sharding
// parallelizes detection, determination and the Raft round, while
// completion collection remains global per shard round.
type Sharded struct {
	Shards []*Controller
	net    *netsim.Network
}

// NewSharded deploys one controller shard per pod, each with its own Raft
// group.
func NewSharded(net *netsim.Network, cl *core.Cluster) *Sharded {
	s := &Sharded{net: net}
	pods := net.Cfg.Topo.Pods
	for p := 0; p < pods; p++ {
		c := &Controller{net: net, cl: cl, declared: make(map[netsim.ProcID]bool)}
		c.Raft = buildRaft(net, c)
		s.Shards = append(s.Shards, c)
	}
	// Route dead-link reports to the owning shard.
	net.OnLinkDead = func(l topology.Link, lastCommit sim.Time) {
		shard := s.owner(l)
		at := net.Eng.Now()
		net.Eng.After(mgmtDelay, func() {
			shard.onReport(report{link: l, lastCommit: lastCommit, at: at})
		})
	}
	for _, h := range cl.Hosts {
		h := h
		hostPod := s.podOfHost(h.ID)
		h.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
			s.Shards[hostPod].onStuck(h, src, dst, ts)
		}
	}
	return s
}

// podOfHost returns the pod index of a host.
func (s *Sharded) podOfHost(host int) int {
	return s.net.G.Node(s.net.G.Host(host)).Pod
}

// owner picks the shard responsible for a failed link: the pod of its
// upstream node, falling back to the downstream pod (and shard 0 when
// neither endpoint belongs to a pod).
func (s *Sharded) owner(l topology.Link) *Controller {
	pod := s.net.G.Node(l.From).Pod
	if pod < 0 { // core switches belong to no pod
		pod = s.net.G.Node(l.To).Pod
	}
	if pod < 0 || pod >= len(s.Shards) {
		pod = 0
	}
	return s.Shards[pod]
}

// WaitLeaders blocks until every shard's Raft group has a leader.
func (s *Sharded) WaitLeaders(deadline sim.Time) bool {
	for _, c := range s.Shards {
		if c.Raft.WaitLeader(deadline) == nil {
			return false
		}
	}
	return true
}

// Failures aggregates all shards' failure records.
func (s *Sharded) Failures() []FailureRecord {
	var out []FailureRecord
	for _, c := range s.Shards {
		out = append(out, c.Failures...)
	}
	return out
}

// RecoveryTimes returns each shard's recovery-time samples.
func (s *Sharded) RecoveryTimes() []float64 {
	var out []float64
	for _, c := range s.Shards {
		for i := 0; i < c.RecoveryTime.N(); i++ {
			out = append(out, c.RecoveryTime.Mean())
		}
	}
	return out
}
