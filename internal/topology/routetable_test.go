package topology

import (
	"fmt"
	"slices"
	"testing"
)

// White-box tests of the route table NextHops reads: after any mutation, for
// every (node, host) pair, the table's answer equals the routing function's
// fresh scan element for element — the same candidates in the same order, so
// an ECMP draw over them picks the same link.

// checkRouteTable compares NextHops with the uncached routing function for
// every node and every host, and requires an empty answer for every non-host
// destination.
func checkRouteTable(t *testing.T, g *Graph, label string) {
	t.Helper()
	var scan []LinkID
	for cur := range g.Nodes {
		for dst := range g.Nodes {
			got := g.NextHops(NodeID(cur), NodeID(dst))
			if g.Nodes[dst].Kind != KindHost {
				if len(got) != 0 {
					t.Fatalf("%s: NextHops(%d, %d) to a non-host = %v, want none", label, cur, dst, got)
				}
				continue
			}
			scan = g.appendNextHops(scan[:0], NodeID(cur), NodeID(dst), false)
			if !slices.Equal(got, scan) {
				t.Fatalf("%s: NextHops(%d %s, %d) = %v, the routing function gives %v",
					label, cur, g.Nodes[cur].Name, dst, got, scan)
			}
		}
	}
}

// routeOps are the graph's mutators, each applied to a graph by a draw in
// [0, 1<<16): every call that can change an answer of the routing function.
var routeOps = []struct {
	name string
	do   func(g *Graph, x int) string
}{
	{"KillLink", func(g *Graph, x int) string {
		l := LinkID(x % len(g.Links))
		g.KillLink(l)
		return fmt.Sprintf("KillLink(%d)", l)
	}},
	{"KillNode", func(g *Graph, x int) string {
		n := NodeID(x % len(g.Nodes))
		g.KillNode(n)
		return fmt.Sprintf("KillNode(%d)", n)
	}},
	{"KillPhys", func(g *Graph, x int) string {
		p := g.Nodes[x%len(g.Nodes)].Phys
		g.KillPhys(p)
		return fmt.Sprintf("KillPhys(%d)", p)
	}},
	{"Revive", func(g *Graph, _ int) string {
		g.Revive()
		return "Revive()"
	}},
	{"ReviveLink", func(g *Graph, x int) string {
		l := LinkID(x % len(g.Links))
		g.ReviveLink(l)
		return fmt.Sprintf("ReviveLink(%d)", l)
	}},
	{"ReviveNode", func(g *Graph, x int) string {
		n := NodeID(x % len(g.Nodes))
		g.ReviveNode(n)
		return fmt.Sprintf("ReviveNode(%d)", n)
	}},
	{"DrainNode", func(g *Graph, x int) string {
		n := NodeID(x % len(g.Nodes))
		g.DrainNode(n)
		return fmt.Sprintf("DrainNode(%d)", n)
	}},
	{"UndrainNode", func(g *Graph, x int) string {
		n := NodeID(x % len(g.Nodes))
		g.UndrainNode(n)
		return fmt.Sprintf("UndrainNode(%d)", n)
	}},
	{"AddHost", func(g *Graph, x int) string {
		pod := x % len(g.torUp)
		rack := x / len(g.torUp) % len(g.torUp[pod])
		_, _, err := g.AddHost(pod, rack) // refused while the ToR is dead or drained
		return fmt.Sprintf("AddHost(%d, %d) err=%v", pod, rack, err)
	}},
	{"AddSpine", func(g *Graph, x int) string {
		pod := x % len(g.spineUp)
		g.AddSpine(pod)
		return fmt.Sprintf("AddSpine(%d)", pod)
	}},
}

func routeOp(name string) func(g *Graph, x int) string {
	for _, op := range routeOps {
		if op.name == name {
			return op.do
		}
	}
	panic("no route op " + name)
}

// TestNextHopsTableMatchesScan runs every mutator once, each chosen to change
// some answer, with the table warm before it, and checks every (node, host)
// pair after it. The last two steps are AddHost taken apart — the host node
// without its links, then its links — so that adding a node and adding a
// link each have a warm table to invalidate.
func TestNextHopsTableMatchesScan(t *testing.T) {
	g := NewClos(ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2})
	checkRouteTable(t, g, "fresh")
	torUp := g.torUp[0][0]
	spineUp, spineDown := g.spineUp[0][0], g.spineDown[0][0]
	trunk := g.LinkBetween(torUp, spineUp)
	host := g.Hosts[5]
	steps := []struct {
		op string
		x  int
	}{
		{"KillLink", int(trunk)},
		{"ReviveLink", int(trunk)},
		{"KillLink", int(g.In[host][0])}, // the ToR-down route
		{"Revive", 0},
		{"KillNode", int(spineUp)},
		{"ReviveNode", int(spineUp)},
		{"KillPhys", int(spineDown)},
		{"Revive", 0},
		{"DrainNode", int(host)},
		{"UndrainNode", int(host)},
		{"DrainNode", int(spineDown)},
		{"UndrainNode", int(spineDown)},
		{"AddHost", 1},
		{"AddSpine", 1},
		{"KillNode", int(g.cores[1])},
	}
	for _, s := range steps {
		label := routeOp(s.op)(g, s.x)
		checkRouteTable(t, g, label)
	}
	h := g.addNode(KindHost, "half-added", g.nextPhys, 0, 0)
	checkRouteTable(t, g, "AddHost's node")
	g.addLink(h, g.torUp[0][0], LinkHostUp)
	g.addLink(g.torDown[0][0], h, LinkTorHostDown)
	checkRouteTable(t, g, "AddHost's links")
}

// FuzzRouteTable plays a random sequence of the mutators, every one read
// from the input (an op byte and two argument bytes), and checks the table
// against the routing function after each.
func FuzzRouteTable(f *testing.F) {
	f.Add([]byte{0, 3, 0, 4, 0, 0, 8, 1, 0, 9, 0, 0, 6, 40, 0, 7, 40, 0})
	f.Add([]byte{2, 30, 0, 8, 0, 0, 3, 0, 0, 9, 1, 0, 1, 50, 0, 5, 50, 0, 0, 70, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewClos(ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 1, SpinesPerPod: 1, Cores: 2})
		checkRouteTable(t, g, "fresh")
		for step := 0; len(data) >= 3 && step < 24; step++ {
			op := routeOps[int(data[0])%len(routeOps)]
			x := int(data[1]) | int(data[2])<<8
			data = data[3:]
			if len(g.Nodes) > 200 && (op.name == "AddHost" || op.name == "AddSpine") {
				continue // keep the all-pairs check small
			}
			checkRouteTable(t, g, fmt.Sprintf("step %d: %s", step, op.do(g, x)))
		}
	})
}

// BenchmarkNextHop is one routing lookup at a spine's up half of the
// 512-host fabric (the benchmark's sparse-fabric), the destination walking
// every host: a turn-around for the spine's own pod, the core candidates for
// the other seven.
func BenchmarkNextHop(b *testing.B) {
	g := NewClos(ClosConfig{Pods: 8, RacksPerPod: 4, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8})
	spine := g.SpineUps(0)[0]
	hosts := g.Hosts
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(g.NextHops(spine, hosts[i%len(hosts)]))
	}
	if n == 0 {
		b.Fatal("no candidates")
	}
}
