package reconfig

import (
	"slices"
	"testing"

	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func smallClos() topology.ClosConfig {
	return topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}
}

// harness runs continuous scatterings among a mutable set of live procs
// while recording every send, delivery, send failure, join and drain into
// an oracle log; check adds the controller's failures and holds the log to
// the delivery contract.
type harness struct {
	t   *testing.T
	cl  *core.Cluster
	eng *sim.Engine
	log oracle.Log

	active []netsim.ProcID // scattering targets

	failures map[netsim.ProcID]int // keyed by destination proc
}

func newHarness(t *testing.T, cl *core.Cluster) *harness {
	h := &harness{t: t, cl: cl, eng: cl.Net.Eng, failures: make(map[netsim.ProcID]int)}
	h.log.SendFails = make(map[oracle.ID]map[netsim.ProcID]bool)
	h.log.Joined = make(map[netsim.ProcID]sim.Time)
	h.log.Drained = make(map[netsim.ProcID]oracle.Drain)
	for _, p := range cl.Procs {
		h.watch(p)
		h.active = append(h.active, p.ID)
	}
	return h
}

func (h *harness) watch(p *core.Proc) {
	pid := p.ID
	h.log.Deliveries = append(h.log.Deliveries, nil) // procs are watched in ID order
	p.OnDeliver = func(d core.Delivery) {
		h.log.Deliveries[pid] = append(h.log.Deliveries[pid],
			oracle.Delivery{TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID), Reliable: d.Reliable})
	}
	p.OnSendFail = func(f core.SendFailure) {
		h.failures[f.Dst]++
		id := f.Data.(oracle.ID)
		if h.log.SendFails[id] == nil {
			h.log.SendFails[id] = make(map[netsim.ProcID]bool)
		}
		h.log.SendFails[id][f.Dst] = true
	}
}

// join watches the proc of a host that joined at epoch eff and adds it to
// the scattering targets.
func (h *harness) join(eff sim.Time) *core.Proc {
	p := h.cl.Procs[len(h.cl.Procs)-1]
	h.watch(p)
	h.log.Joined[p.ID] = eff
	h.active = append(h.active, p.ID)
	return p
}

// drained freezes the logs of host hi's procs; call it as the drain
// completes.
func (h *harness) drained(hi int) {
	for pi := range h.log.Deliveries {
		if h.cl.Net.HostOfProc(netsim.ProcID(pi)) == hi {
			h.log.Drained[netsim.ProcID(pi)] = oracle.Drain{LogLen: len(h.log.Deliveries[pi]), At: h.eng.Now()}
		}
	}
}

// check holds the log to the delivery contract, with the controller's
// failures and the procs of the given departed hosts owing no deliveries.
func (h *harness) check(ctrl *controller.Controller, departed ...int) {
	for _, rec := range ctrl.Failures {
		h.log.Fail(rec.Procs)
	}
	h.log.Correct = make([]bool, len(h.log.Deliveries))
	for pi := range h.log.Correct {
		h.log.Correct[pi] = !slices.Contains(departed, h.cl.Net.HostOfProc(netsim.ProcID(pi)))
	}
	for _, v := range oracle.Check(&h.log) {
		h.t.Error(v)
	}
}

// startSender arms a periodic reliable scattering from p to two random
// active targets until the deadline.
func (h *harness) startSender(p *core.Proc, period, until sim.Time) {
	rng := h.eng.Rand()
	sim.NewTicker(h.eng, period, sim.Time(int(p.ID)*97)*sim.Nanosecond, func() {
		if h.eng.Now() > until {
			return
		}
		d1 := h.active[rng.Intn(len(h.active))]
		d2 := h.active[rng.Intn(len(h.active))]
		if d1 == p.ID || d2 == p.ID || d1 == d2 {
			return
		}
		s := oracle.Send{ID: oracle.ID{Src: p.ID, Seq: int32(len(h.log.Sends))}, Src: p.ID,
			Dsts: []netsim.ProcID{d1, d2}, Reliable: true}
		s.Refused = p.SendReliable([]core.Message{
			{Dst: d1, Data: s.ID, Size: 64},
			{Dst: d2, Data: s.ID, Size: 64},
		}) != nil
		h.log.Sends = append(h.log.Sends, s)
	})
}

func deploy(t *testing.T, topo topology.ClosConfig) (*netsim.Network, *core.Cluster, *controller.Controller) {
	cfg := netsim.DefaultConfig(topo, 1)
	cfg.ControllerManagedCommit = true
	net := netsim.New(cfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := controller.New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		t.Fatal("no controller leader")
	}
	return net, cl, ctrl
}

// TestJoinDrainLive runs the full elastic lifecycle on a loaded fabric:
// a host joins mid-traffic, an incumbent host drains, a spine drains, and
// a spine is added — with no failure record, no delivery-order regression
// at any receiver, and the joiner observing a clean suffix of the total
// order (every delivery above the effective join epoch).
func TestJoinDrainLive(t *testing.T) {
	net, cl, ctrl := deploy(t, smallClos())
	eng := net.Eng
	h := newHarness(t, cl)
	until := 12 * sim.Millisecond
	for _, p := range cl.Procs {
		h.startSender(p, 20*sim.Microsecond, until)
	}
	eng.RunFor(1 * sim.Millisecond)

	// Join a new host under pod 0, rack 0.
	e := New(net, cl, ctrl)
	var joined *core.Proc
	hi, err := e.JoinHost(0, 0, func(host *core.Host, eff sim.Time) {
		joined = h.join(eff)
		h.startSender(joined, 20*sim.Microsecond, until)
	})
	if err != nil {
		t.Fatalf("JoinHost: %v", err)
	}
	if hi != len(net.G.Hosts)-1 {
		t.Fatalf("join host index = %d, want %d", hi, len(net.G.Hosts)-1)
	}
	eng.RunFor(2 * sim.Millisecond)
	if joined == nil {
		t.Fatal("join never activated")
	}
	joinedID := joined.ID

	// Drain incumbent host 2 (keep its proc in the target set: sends
	// toward a departed host must resolve via send-failure, not hang).
	if err := e.DrainHost(2, func() { h.drained(2) }); err != nil {
		t.Fatalf("DrainHost: %v", err)
	}
	eng.RunFor(2 * sim.Millisecond)
	if len(h.log.Drained) == 0 {
		t.Fatal("host drain never completed")
	}
	if !cl.Hosts[2].Draining() {
		t.Fatal("host 2 not marked draining")
	}

	// Drain pod 0's second spine, then grow pod 1's spine set.
	spinePhys := net.G.Node(net.G.SpineUps(0)[1]).Phys
	var switchDrained, switchAdded bool
	if err := e.DrainSwitch(spinePhys, func() { switchDrained = true }); err != nil {
		t.Fatalf("DrainSwitch: %v", err)
	}
	eng.RunFor(1 * sim.Millisecond)
	if err := e.AddSwitch(1, func(phys int) { switchAdded = true }); err != nil {
		t.Fatalf("AddSwitch: %v", err)
	}
	markDeliveries := h.log.TotalDeliveries()
	// Scatterings toward the drained host resolve only when their send
	// failure times out, and until then they hold back every reliable
	// delivery (about 6 ms here): settle long enough for a complete log.
	eng.RunFor(until - eng.Now() + 10*sim.Millisecond)

	if !switchDrained || !switchAdded {
		t.Fatalf("switch reconfig incomplete: drained=%v added=%v", switchDrained, switchAdded)
	}
	if len(ctrl.Failures) != 0 {
		t.Fatalf("graceful reconfiguration produced %d failure records", len(ctrl.Failures))
	}
	if got := len(e.Log); got != 4 {
		t.Fatalf("epoch log has %d records, want 4", got)
	}
	if len(ctrl.Epochs) != 4 {
		t.Fatalf("controller replicated %d epochs, want 4", len(ctrl.Epochs))
	}

	// The delivery contract holds across every reconfiguration: the joiner
	// sends and delivers above its epoch and agrees with the incumbents on
	// the messages both saw, so it delivers a suffix of the same total
	// order; the drained host owes nothing and delivers nothing after its
	// drain completed.
	h.check(ctrl, 2)
	if len(h.log.Deliveries[joinedID]) == 0 {
		t.Fatal("joined host delivered nothing")
	}
	fromJoiner := 0
	for _, ds := range h.log.Deliveries {
		for _, d := range ds {
			if d.Src == joinedID {
				fromJoiner++
			}
		}
	}
	if fromJoiner == 0 {
		t.Fatal("no message from the joined host was delivered")
	}
	// Sends toward the departed host fail instead of hanging.
	if h.failures[2] == 0 {
		t.Error("no send-failure reported for sends toward the drained host")
	}
	// The fabric kept delivering after every reconfiguration.
	if h.log.TotalDeliveries() <= markDeliveries {
		t.Fatal("no deliveries after switch reconfiguration")
	}
}

// TestDrainSwitchRejectsPartition verifies the engine refuses a drain
// that would disconnect live hosts (the only spine of a pod).
func TestDrainSwitchRejectsPartition(t *testing.T) {
	topo := smallClos()
	topo.SpinesPerPod = 1
	net, cl, ctrl := deploy(t, topo)
	e := New(net, cl, ctrl)
	phys := net.G.Node(net.G.SpineUps(0)[0]).Phys
	if err := e.DrainSwitch(phys, nil); err == nil {
		t.Fatal("draining the only spine of a pod was not rejected")
	}
	if net.G.NodeDrained(net.G.SpineUps(0)[0]) {
		t.Fatal("rejected drain left the spine derouted")
	}
	if len(e.Log) != 0 {
		t.Fatal("rejected drain recorded an epoch")
	}
}

// TestJoinedHostDiesResolvedByFailurePath kills a freshly joined host and
// checks the ordinary §5.2 pipeline cleans it up, with a failure
// timestamp that can never precede the Raft-recorded join epoch and
// nothing delivered above it.
func TestJoinedHostDiesResolvedByFailurePath(t *testing.T) {
	net, cl, ctrl := deploy(t, smallClos())
	eng := net.Eng
	h := newHarness(t, cl)
	until := 10 * sim.Millisecond
	for _, p := range cl.Procs {
		h.startSender(p, 20*sim.Microsecond, until)
	}
	eng.RunFor(1 * sim.Millisecond)

	e := New(net, cl, ctrl)
	var joinedHost *core.Host
	var joined *core.Proc
	hi, err := e.JoinHost(1, 1, func(host *core.Host, eff sim.Time) {
		joinedHost, joined = host, h.join(eff)
		h.startSender(joined, 20*sim.Microsecond, until)
	})
	if err != nil {
		t.Fatalf("JoinHost: %v", err)
	}
	eng.RunFor(2 * sim.Millisecond)
	if joinedHost == nil {
		t.Fatal("join never activated")
	}

	// Die young: crash the joined host with traffic in flight.
	joinedHost.Stop()
	net.G.KillNode(net.G.Host(hi))
	eng.RunFor(10 * sim.Millisecond)

	h.check(ctrl, hi)
	if _, failed := h.log.Failed[joined.ID]; !failed {
		t.Fatal("no failure record covers the joined host's proc")
	}
}
