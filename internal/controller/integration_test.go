package controller

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestAtomicityUnderContinuousTraffic is the whole-stack crucible: many
// processes continuously issue reliable scatterings to random receiver
// pairs while a host is killed mid-stream. Afterwards the oracle holds the
// log to the delivery contract: every scattering from a correct sender
// reaches both of its correct receivers or neither (and then the sender is
// told), and no correct receiver delivers anything from the failed process
// above its failure timestamp.
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

	log := oracle.Log{Deliveries: make([][]oracle.Delivery, n), SendFails: make(map[oracle.ID]map[netsim.ProcID]bool)}
	for _, p := range cl.Procs {
		p := p
		p.OnDeliver = func(d core.Delivery) {
			log.Deliveries[p.ID] = append(log.Deliveries[p.ID],
				oracle.Delivery{TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID), Reliable: d.Reliable})
		}
		p.OnSendFail = func(f core.SendFailure) {
			id := f.Data.(oracle.ID)
			if log.SendFails[id] == nil {
				log.SendFails[id] = make(map[netsim.ProcID]bool)
			}
			log.SendFails[id][f.Dst] = true
		}
	}

	// Continuous reliable scatterings to two random receivers each.
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
			s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(pi), Seq: int32(len(log.Sends))},
				Src: netsim.ProcID(pi), Dsts: []netsim.ProcID{d1, d2}, Reliable: true}
			s.Refused = cl.Procs[pi].SendReliable([]core.Message{
				{Dst: d1, Data: s.ID, Size: 64},
				{Dst: d2, Data: s.ID, Size: 64},
			}) != nil
			log.Sends = append(log.Sends, s)
		})
	}

	// Kill host 5 mid-stream (its proc 5 is both a sender and receiver).
	killAt := eng.Now() + 1*sim.Millisecond
	eng.At(killAt, func() {
		cl.Hosts[5].Stop()
		net.G.KillNode(net.G.Host(5))
	})
	eng.RunFor(30 * sim.Millisecond)

	if len(ctrl.Failures) == 0 {
		t.Fatal("controller never recorded the failure")
	}
	for _, rec := range ctrl.Failures {
		log.Fail(rec.Procs)
	}
	log.Correct = make([]bool, n)
	for pi := range log.Correct {
		log.Correct[pi] = net.HostOfProc(netsim.ProcID(pi)) != 5
	}
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	if len(log.Sends) < 100 {
		t.Fatalf("only %d scatterings sent", len(log.Sends))
	}
	t.Logf("checked %d scatterings, %d deliveries across kill of host 5; failed procs: %v",
		len(log.Sends), log.TotalDeliveries(), log.Failed)
}
