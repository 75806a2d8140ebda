package netsim

import (
	"testing"

	"onepipe/internal/barrier"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// scanBarriers is a switch's aggregate read from scratch, as netsim read it
// before the register sets: per plane the minimum over the node's input
// links — on the best-effort plane over the links the scanner holds alive
// and the topology does not mark dead, on the commit plane over its members
// — clamped at the node's last output. It also reports whether a death mark
// took some live link out of the best-effort minimum.
func scanBarriers(n *Network, node *nodeState) (be, c sim.Time, deadSkipped bool) {
	be, c = node.regs.Last()
	var minBE, minC sim.Time
	anyBE, anyC := false, false
	for _, lid := range n.G.In[node.id] {
		l := n.links[lid]
		rbe, rc := n.LinkRegisters(lid)
		if l.alive && n.G.LinkDead(lid) {
			deadSkipped = true
		}
		if l.alive && !n.G.LinkDead(lid) && (!anyBE || rbe < minBE) {
			minBE, anyBE = rbe, true
		}
		if node.regs.Member(l.slot, barrier.C) && (!anyC || rc < minC) {
			minC, anyC = rc, true
		}
	}
	if anyBE {
		be = max(be, minBE)
	}
	if anyC {
		c = max(c, minC)
	}
	return be, c, deadSkipped
}

// TestDeadnessNotification kills and revives links, hosts and a whole switch
// on a running Testbed() through the topology's own calls, at engine events,
// the way chaos and the controller do. Right after every event, and every
// few hundred engine steps in between, each switch's NodeBarriers must equal
// the from-scratch scan, and netsim's dead mirrors must equal the graph's.
func TestDeadnessNotification(t *testing.T) {
	n, _, _ := idleFabric(topology.Testbed(), nil)
	g := n.G
	iv := n.Cfg.BeaconInterval
	torDown := g.Links[g.In[g.Host(0)][0]].From // host 0's ToR down half
	var cut topology.LinkID = -1
	for _, lid := range g.In[torDown] {
		if g.Link(lid).Kind == topology.LinkSpineTorDown {
			cut = lid
			break
		}
	}
	lastTor := g.Node(g.Links[g.In[g.Host(len(g.Hosts)-1)][0]].From) // the physical switch that dies
	checks, deadSkips := 0, 0
	check := func(when string) {
		t.Helper()
		checks++
		for _, node := range n.nodes {
			if node.dead != g.NodeDead(node.id) {
				t.Fatalf("%s: node %d dead mirror %v, graph %v", when, node.id, node.dead, g.NodeDead(node.id))
			}
			if node.kind == topology.KindHost {
				continue
			}
			wantBE, wantC, skipped := scanBarriers(n, node)
			if skipped {
				deadSkips++
			}
			if be, c := n.NodeBarriers(node.id); be != wantBE || c != wantC {
				t.Fatalf("%s: node %d (%s) aggregates (%d, %d), a scan gives (%d, %d)",
					when, node.id, g.Node(node.id).Name, be, c, wantBE, wantC)
			}
		}
		for _, l := range n.links {
			if l.dead != g.LinkDead(l.id) {
				t.Fatalf("%s: link %d dead mirror %v, graph %v", when, l.id, l.dead, g.LinkDead(l.id))
			}
		}
	}
	events := []struct {
		at   sim.Time
		name string
		do   func()
	}{
		{30, "KillLink", func() { g.KillLink(cut) }},
		{40, "KillNode host 3", func() { g.KillNode(g.Host(3)) }},
		{44, "KillLink again (no change)", func() { g.KillLink(cut) }},
		{50, "KillPhys", func() { g.KillPhys(lastTor.Phys) }},
		{60, "ReviveLink", func() { g.ReviveLink(cut) }},
		{70, "ReviveNode host 3", func() { g.ReviveNode(g.Host(3)) }},
		{80, "Revive", func() { g.Revive() }},
	}
	for _, ev := range events {
		ev := ev
		n.Eng.At(ev.at*iv, func() {
			ev.do()
			check(ev.name)
		})
	}
	for step := 0; n.Eng.Now() < 100*iv; step++ {
		if !n.Eng.Step() {
			t.Fatal("queue ran dry")
		}
		if step%300 == 0 {
			check("between events")
		}
	}
	if deadSkips == 0 {
		t.Fatal("no check saw a death mark take a live link out of a minimum; the test exercised nothing")
	}
	t.Logf("%d checks, %d node reads with a live link excluded by a death mark", checks, deadSkips)
}
