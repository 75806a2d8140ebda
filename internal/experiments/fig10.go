package experiments

import (
	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
)

// failureKind selects what to kill in the Fig. 10 sweep.
type failureKind int

const (
	failHost failureKind = iota
	failToR
	failCoreLink
	failCoreSwitch
)

// runRecovery deploys a controller-managed cluster of n hosts, injects one
// failure, and returns the measured recovery time (barrier stall) in
// microseconds, or -1 if recovery never completed.
func runRecovery(n int, kind failureKind, seed int64) float64 {
	topo, pph := topoFor(n)
	ncfg := netsim.DefaultConfig(topo, pph)
	ncfg.Seed = seed
	ncfg.ControllerManagedCommit = true
	net := netsim.New(ncfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := controller.New(net, cl)
	if ctrl.Raft.WaitLeader(50*sim.Millisecond) == nil {
		return -1
	}
	eng := net.Eng
	g := net.G
	eng.After(100*sim.Microsecond, func() {
		switch kind {
		case failHost:
			cl.Hosts[0].Stop()
			g.KillNode(g.Host(0))
		case failToR:
			tor := g.Links[g.Out[g.Host(0)][0]].To
			g.KillPhys(g.Nodes[tor].Phys)
		case failCoreLink:
			killCoreAdjacent(g, true)
		case failCoreSwitch:
			killCoreAdjacent(g, false)
		}
	})
	eng.RunFor(10 * sim.Millisecond)
	if ctrl.RecoveryTime.N() == 0 {
		return -1
	}
	return ctrl.RecoveryTime.Mean()
}

// killCoreAdjacent kills one spine->core link (linkOnly) or one whole core
// switch.
func killCoreAdjacent(g *topology.Graph, linkOnly bool) {
	for _, l := range g.Links {
		if l.Kind == topology.LinkSpineCoreUp {
			if linkOnly {
				g.KillLink(l.ID)
			} else {
				g.KillPhys(g.Nodes[l.To].Phys)
			}
			return
		}
	}
	// Single-core topologies without a core layer fall back to a spine
	// loopback link.
	for _, l := range g.Links {
		if l.Kind == topology.LinkLoopback {
			g.KillLink(l.ID)
			return
		}
	}
}

// Fig10 regenerates failure recovery time by failure type and host count.
func Fig10(sc Scale) *Table {
	t := &Table{
		ID: "10", Title: "Failure recovery time (us): mean [p5, p95]",
		Columns: []string{"hosts", "Host", "ToR Switch", "Core Link", "Core Switch"},
	}
	for _, n := range procSweep(sc, []int{8, 16, 32}) {
		row := []string{f1(float64(n))}
		for _, kind := range []failureKind{failHost, failToR, failCoreLink, failCoreSwitch} {
			var s stats.Sample
			for seed := int64(1); seed <= int64(sc.Seeds); seed++ {
				if us := runRecovery(n, kind, seed); us >= 0 {
					s.Add(us)
				}
			}
			if s.N() == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, s.Summary())
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: core link/switch failures recover without involving processes; host and especially ToR failures take longer (more processes to Discard/Recall); paper band 50-500us")
	return t
}
