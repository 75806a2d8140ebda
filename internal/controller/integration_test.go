package controller

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestAtomicityUnderContinuousTraffic is the whole-stack crucible: many
// processes continuously issue reliable scatterings to random receiver
// pairs while a host is killed mid-stream. Afterwards, every scattering
// must satisfy restricted failure atomicity: its two correct receivers
// either BOTH delivered it or NEITHER did, and each sender observed a
// consistent outcome (both-delivered or failure-reported).
func TestAtomicityUnderContinuousTraffic(t *testing.T) {
	cfg := netsim.DefaultConfig(topology.Testbed(), 1)
	cfg.ControllerManagedCommit = true
	cfg.Impair = netsim.UniformLoss(1e-4)
	net := netsim.New(cfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("no controller leader")
	}
	eng := net.Eng
	n := len(cl.Procs)

	type scatterID struct {
		src netsim.ProcID
		seq int
	}
	delivered := make(map[scatterID]map[netsim.ProcID]bool)
	failedAt := make(map[scatterID]int) // send-failure callbacks seen
	type payload struct {
		id scatterID
	}
	for _, p := range cl.Procs {
		p := p
		p.OnDeliver = func(d core.Delivery) {
			pl := d.Data.(payload)
			m := delivered[pl.id]
			if m == nil {
				m = make(map[netsim.ProcID]bool)
				delivered[pl.id] = m
			}
			m[p.ID] = true
		}
		p.OnSendFail = func(f core.SendFailure) {
			failedAt[f.Data.(payload).id]++
		}
	}

	// Continuous reliable scatterings to two random receivers each.
	seqs := make([]int, n)
	targets := make(map[scatterID][2]netsim.ProcID)
	rng := eng.Rand()
	for pi := 0; pi < n; pi++ {
		pi := pi
		sim.NewTicker(eng, 5*sim.Microsecond, sim.Time(pi*83)*sim.Nanosecond, func() {
			if eng.Now() > 3*sim.Millisecond {
				return
			}
			d1 := netsim.ProcID(rng.Intn(n))
			d2 := netsim.ProcID(rng.Intn(n))
			if int(d1) == pi || int(d2) == pi || d1 == d2 {
				return
			}
			seqs[pi]++
			id := scatterID{src: netsim.ProcID(pi), seq: seqs[pi]}
			err := cl.Procs[pi].SendReliable([]core.Message{
				{Dst: d1, Data: payload{id}, Size: 64},
				{Dst: d2, Data: payload{id}, Size: 64},
			})
			if err == nil {
				targets[id] = [2]netsim.ProcID{d1, d2}
			}
		})
	}

	// Kill host 5 mid-stream (its proc 5 is both a sender and receiver).
	killAt := eng.Now() + 1*sim.Millisecond
	eng.At(killAt, func() {
		cl.Hosts[5].Stop()
		net.G.KillNode(net.G.Host(5))
	})
	eng.RunFor(30 * sim.Millisecond)

	checked, partial := 0, 0
	for id, dsts := range targets {
		if id.src == 5 {
			continue // the failed sender's own outcomes are unknowable
		}
		m := delivered[id]
		for _, dst := range dsts {
			if dst == 5 {
				// The interesting case: one receiver is the failed proc.
				// The OTHER receiver must deliver only if the scattering
				// committed before the failure; either way no "partial at
				// correct receivers" arises with a single correct member,
				// but the sender must have a definite outcome:
				other := dsts[0]
				if other == 5 {
					other = dsts[1]
				}
				otherGot := m[other]
				sawFail := failedAt[id] > 0
				if !otherGot && !sawFail {
					t.Errorf("scattering %v: neither delivered at %d nor failure-reported", id, other)
				}
				checked++
				goto next
			}
		}
		// Both receivers correct: all-or-nothing.
		if len(m) == 1 {
			partial++
			t.Errorf("scattering %v delivered at only one of %v", id, dsts)
		}
		if len(m) == 0 && failedAt[id] == 0 {
			t.Errorf("scattering %v vanished without a failure report", id)
		}
		checked++
	next:
	}
	if checked < 100 {
		t.Fatalf("only %d scatterings checked", checked)
	}
	if partial > 0 {
		t.Fatalf("%d partial deliveries — restricted atomicity violated", partial)
	}
	if len(ctrl.Failures) == 0 {
		t.Fatal("controller never recorded the failure")
	}
	t.Logf("checked %d scatterings across kill of host 5; failures recorded: %d",
		checked, len(ctrl.Failures))
}
