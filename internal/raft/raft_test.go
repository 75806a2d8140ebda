package raft

import (
	"fmt"
	"testing"

	"onepipe/internal/sim"
)

func newTestCluster(n int, apply func(node, index int, cmd any)) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine(1)
	c := NewCluster(eng, n, DefaultConfig(), apply)
	return eng, c
}

func TestLeaderElection(t *testing.T) {
	eng, c := newTestCluster(3, nil)
	l := c.WaitLeader(50 * sim.Millisecond)
	if l == nil {
		t.Fatal("no leader elected")
	}
	// Exactly one leader.
	eng.RunFor(5 * sim.Millisecond)
	leaders := 0
	for _, n := range c.Nodes {
		if n.Role() == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders", leaders)
	}
}

func TestLogReplicationAndApply(t *testing.T) {
	applied := make(map[int][]any)
	eng, c := newTestCluster(3, func(node, index int, cmd any) {
		applied[node] = append(applied[node], cmd)
	})
	l := c.WaitLeader(50 * sim.Millisecond)
	if l == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 10; i++ {
		if _, _, ok := l.Propose(fmt.Sprintf("cmd%d", i)); !ok {
			t.Fatal("propose rejected by leader")
		}
	}
	eng.RunFor(10 * sim.Millisecond)
	for node, cmds := range applied {
		if len(cmds) != 10 {
			t.Fatalf("node %d applied %d commands", node, len(cmds))
		}
		for i, cmd := range cmds {
			if cmd != fmt.Sprintf("cmd%d", i) {
				t.Fatalf("node %d applied %v at %d", node, cmd, i)
			}
		}
	}
	if len(applied) != 3 {
		t.Fatalf("only %d nodes applied", len(applied))
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	_, c := newTestCluster(3, nil)
	l := c.WaitLeader(50 * sim.Millisecond)
	for _, n := range c.Nodes {
		if n != l {
			if _, _, ok := n.Propose("x"); ok {
				t.Fatal("follower accepted proposal")
			}
		}
	}
}

func TestReElectionAfterLeaderCrash(t *testing.T) {
	eng, c := newTestCluster(5, nil)
	l1 := c.WaitLeader(50 * sim.Millisecond)
	if l1 == nil {
		t.Fatal("no leader")
	}
	l1.Stop()
	eng.RunFor(10 * sim.Millisecond)
	l2 := c.WaitLeader(eng.Now() + 50*sim.Millisecond)
	if l2 == nil || l2 == l1 {
		t.Fatal("no new leader after crash")
	}
	if l2.Term() <= l1.Term() {
		t.Fatalf("new leader term %d not above old %d", l2.Term(), l1.Term())
	}
}

func TestCommittedEntriesSurviveLeaderCrash(t *testing.T) {
	applied := make(map[int][]any)
	eng, c := newTestCluster(5, func(node, index int, cmd any) {
		applied[node] = append(applied[node], cmd)
	})
	l1 := c.WaitLeader(50 * sim.Millisecond)
	l1.Propose("durable")
	eng.RunFor(10 * sim.Millisecond)
	l1.Stop()
	l2 := c.WaitLeader(eng.Now() + 50*sim.Millisecond)
	if l2 == nil {
		t.Fatal("no new leader")
	}
	l2.Propose("after-crash")
	eng.RunFor(20 * sim.Millisecond)
	for node, cmds := range applied {
		if c.Nodes[node].Stopped() {
			continue
		}
		if len(cmds) != 2 || cmds[0] != "durable" || cmds[1] != "after-crash" {
			t.Fatalf("node %d applied %v", node, cmds)
		}
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	applied := make(map[int]int)
	eng, c := newTestCluster(5, func(node, index int, cmd any) { applied[node]++ })
	l := c.WaitLeader(50 * sim.Millisecond)
	// Partition the leader with one other node (minority side).
	minority := []int{l.ID, (l.ID + 1) % 5}
	var majority []int
	for i := 0; i < 5; i++ {
		if i != minority[0] && i != minority[1] {
			majority = append(majority, i)
		}
	}
	c.Partition(minority, majority)
	l.Propose("lost")
	eng.RunFor(20 * sim.Millisecond)
	if applied[majority[0]] != 0 {
		t.Fatal("majority applied an uncommittable entry")
	}
	// The majority side elects a fresh leader and can commit.
	var l2 *Node
	for _, i := range majority {
		if c.Nodes[i].Role() == Leader {
			l2 = c.Nodes[i]
		}
	}
	if l2 == nil {
		t.Fatal("majority did not elect a leader")
	}
	l2.Propose("win")
	eng.RunFor(20 * sim.Millisecond)
	for _, i := range majority {
		if applied[i] != 1 {
			t.Fatalf("majority node %d applied %d", i, applied[i])
		}
	}
	// Heal: the old leader steps down and converges (the "lost" entry is
	// overwritten).
	c.Heal()
	eng.RunFor(50 * sim.Millisecond)
	if c.Nodes[l.ID].Role() == Leader && c.Nodes[l.ID].Term() <= l2.Term() {
		t.Fatal("stale leader did not step down")
	}
	for _, i := range minority {
		if applied[i] != 1 {
			t.Fatalf("healed node %d applied %d", i, applied[i])
		}
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	applied := make(map[int]int)
	eng, c := newTestCluster(3, func(node, index int, cmd any) { applied[node]++ })
	c.Loss = 0.2
	l := c.WaitLeader(200 * sim.Millisecond)
	if l == nil {
		t.Fatal("no leader under 20% loss")
	}
	committed := 0
	for i := 0; i < 20; i++ {
		if l.Stopped() || l.Role() != Leader {
			l = c.WaitLeader(eng.Now() + 100*sim.Millisecond)
			if l == nil {
				t.Fatal("lost leadership permanently")
			}
		}
		if _, _, ok := l.Propose(i); ok {
			committed++
		}
		eng.RunFor(5 * sim.Millisecond)
	}
	eng.RunFor(200 * sim.Millisecond)
	if applied[l.ID] == 0 {
		t.Fatal("nothing committed under loss")
	}
}

// Safety property: all applied sequences are prefix-consistent across nodes.
func TestAppliedPrefixConsistency(t *testing.T) {
	seqs := make(map[int][]any)
	eng, c := newTestCluster(5, func(node, index int, cmd any) {
		seqs[node] = append(seqs[node], cmd)
	})
	c.Loss = 0.1
	rng := eng.Rand()
	for round := 0; round < 30; round++ {
		if l := c.Leader(); l != nil {
			l.Propose(round)
		}
		// Random crash/restart churn.
		if round%7 == 3 {
			victim := c.Nodes[rng.Intn(5)]
			if !victim.Stopped() {
				victim.Stop()
				eng.After(8*sim.Millisecond, victim.Restart)
			}
		}
		eng.RunFor(3 * sim.Millisecond)
	}
	eng.RunFor(100 * sim.Millisecond)
	// Prefix consistency.
	var longest []any
	for _, s := range seqs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	for node, s := range seqs {
		for i := range s {
			if s[i] != longest[i] {
				t.Fatalf("node %d diverges at %d: %v vs %v", node, i, s[i], longest[i])
			}
		}
	}
}

// TestIdleClusterQueuesOnlyTimers: a re-armed election or heartbeat timer
// leaves no stale firing behind, so an idle cluster with a leader and no
// message in flight queues exactly its armed timers.
func TestIdleClusterQueuesOnlyTimers(t *testing.T) {
	eng, c := newTestCluster(3, nil)
	l := c.WaitLeader(50 * sim.Millisecond)
	if l == nil {
		t.Fatal("no leader elected")
	}
	// Settle for many heartbeats, then stop midway between two: a round
	// trip takes at most 2*(delay+jitter), well under the gap left since
	// the last heartbeat.
	eng.RunFor(10 * sim.Millisecond)
	eng.RunUntil(l.heartbeatTimer.Deadline() - DefaultConfig().HeartbeatInterval/4)
	if 2*(delay+jitter) >= DefaultConfig().HeartbeatInterval*3/4 {
		t.Fatal("a heartbeat round trip may still be in flight")
	}
	armed := 0
	for _, n := range c.Nodes {
		for _, tm := range []*sim.Timer{&n.electionTimer, &n.heartbeatTimer} {
			if tm.Armed() {
				armed++
			}
		}
	}
	if got := eng.Pending(); got != armed {
		t.Fatalf("%d entries queued, %d timers armed", got, armed)
	}
}
