package topology

import "slices"

// NextHops returns the candidate output links at node cur for a packet
// destined to host dst, implementing shortest up-down routing with ECMP.
// Dead links, links into dead nodes and links of drained nodes are filtered
// out, which models the SDN controller reconfiguring routes around failures
// (§3.1). The result is empty when the destination is unreachable from cur,
// or when dst is not a host.
//
// The answer comes from the graph's route table (routeTable), built by the
// routing function on first use after any mutation; the returned slice is
// the table's and must not be modified.
func (g *Graph) NextHops(cur, dst NodeID) []LinkID {
	rt := g.routes
	if rt == nil {
		rt = g.buildRoutes()
	}
	d := &rt.dst[dst]
	s := d.down
	if cur != d.tor {
		s = rt.byRack[int(cur)*rt.stride+int(d.rack)]
	}
	return rt.hops[s.off:s.end:s.end]
}

// routeTable caches the routing function. Except at a ToR's down half, the
// up-down route depends on the destination host only through its rack (and
// the rack's pod), so the table holds one candidate list per (node,
// destination rack), built for one host of that rack; at the ToR's down half
// the route is the destination's own downlink, kept per host. Lists are in
// link order, as the routing function returns them, so an ECMP draw over
// one picks exactly what it picked from a fresh scan.
type routeTable struct {
	// stride is the number of racks plus one: the last column of byRack is
	// always empty and is where a non-host destination looks.
	stride int
	dst    []routeDst // by destination node
	byRack []hopSpan  // by node*stride + destination rack
	hops   []LinkID   // every list, back to back
}

// routeDst is what a lookup needs of its destination: the rack, and the
// rack's ToR down half with the route from there.
type routeDst struct {
	rack int32
	tor  NodeID // -1 for a non-host
	down hopSpan
}

// hopSpan is one list of routeTable.hops.
type hopSpan struct{ off, end int32 }

// dropRoutes discards the route table; every mutation that can change an
// answer of the routing function calls it.
func (g *Graph) dropRoutes() { g.routes = nil }

// buildRoutes fills the route table from the routing function.
func (g *Graph) buildRoutes() *routeTable {
	racks := 0
	for _, pod := range g.torDown {
		racks += len(pod)
	}
	rt := &routeTable{
		stride: racks + 1,
		dst:    make([]routeDst, len(g.Nodes)),
		byRack: make([]hopSpan, len(g.Nodes)*(racks+1)),
	}
	for i := range rt.dst {
		rt.dst[i] = routeDst{rack: int32(racks), tor: -1}
	}
	torDown := make([]NodeID, racks) // each rack's ToR down half
	for _, pod := range g.torDown {
		for _, td := range pod {
			torDown[g.Nodes[td].Rack] = td
		}
	}
	rep := make([]NodeID, racks) // a host of each rack
	var buf []LinkID
	for _, h := range g.Hosts {
		d := &rt.dst[h]
		d.rack = int32(g.Nodes[h].Rack)
		d.tor = torDown[d.rack]
		buf = g.appendNextHops(buf[:0], d.tor, h, false)
		d.down = rt.add(buf, hopSpan{})
		rep[d.rack] = h
	}
	for cur := range g.Nodes {
		row := rt.byRack[cur*rt.stride : cur*rt.stride+racks]
		prev := hopSpan{}
		for r, h := range rep {
			buf = g.appendNextHops(buf[:0], NodeID(cur), h, false)
			row[r] = rt.add(buf, prev)
			prev = row[r]
		}
	}
	g.routes = rt
	return rt
}

// add stores hops, sharing prev's storage when the lists are equal.
func (rt *routeTable) add(hops []LinkID, prev hopSpan) hopSpan {
	if slices.Equal(hops, rt.hops[prev.off:prev.end]) {
		return prev
	}
	off := int32(len(rt.hops))
	rt.hops = append(rt.hops, hops...)
	return hopSpan{off, int32(len(rt.hops))}
}

// appendNextHops implements the routing function. With structural set,
// liveness and drain marks are ignored — Validate uses that mode to check
// the wiring itself can route, independent of the current failure state.
func (g *Graph) appendNextHops(buf []LinkID, cur, dst NodeID, structural bool) []LinkID {
	n := g.Nodes[cur]
	d := g.Nodes[dst]
	switch n.Kind {
	case KindHost:
		// Single uplink to the ToR.
		buf = g.filter(buf, cur, structural, func(l Link) bool { return l.Kind == LinkHostUp })
	case KindSwitchUp:
		if n.Rack >= 0 {
			// ToR uplink half: turn around for same-rack destinations,
			// otherwise spread across pod spines.
			if n.Rack == d.Rack {
				buf = g.filter(buf, cur, structural, func(l Link) bool { return l.Kind == LinkLoopback })
			} else {
				buf = g.filter(buf, cur, structural, func(l Link) bool { return l.Kind == LinkTorSpineUp })
			}
		} else {
			// Spine uplink half: turn around within the pod, otherwise up
			// to the cores.
			if n.Pod == d.Pod {
				buf = g.filter(buf, cur, structural, func(l Link) bool { return l.Kind == LinkLoopback })
			} else {
				buf = g.filter(buf, cur, structural, func(l Link) bool { return l.Kind == LinkSpineCoreUp })
			}
		}
	case KindCore:
		// Down into the destination pod.
		buf = g.filter(buf, cur, structural, func(l Link) bool {
			return l.Kind == LinkCoreSpineDown && g.Nodes[l.To].Pod == d.Pod
		})
	case KindSwitchDown:
		if n.Rack >= 0 {
			// ToR downlink half: deliver to the host over its single
			// downlink, if that leaves this ToR.
			if len(g.In[dst]) == 0 {
				break
			}
			lid := g.In[dst][0]
			l := g.Links[lid]
			if l.Kind == LinkTorHostDown && l.From == cur && (structural || (!g.LinkDead(lid) && !g.LinkDrained(lid))) {
				buf = append(buf, lid)
			}
		} else {
			// Spine downlink half: down to the destination rack's ToR.
			buf = g.filter(buf, cur, structural, func(l Link) bool {
				return l.Kind == LinkSpineTorDown && g.Nodes[l.To].Rack == d.Rack
			})
		}
	}
	return buf
}

func (g *Graph) filter(out []LinkID, cur NodeID, structural bool, pred func(Link) bool) []LinkID {
	for _, lid := range g.Out[cur] {
		l := g.Links[lid]
		if pred(l) && (structural || (!g.LinkDead(lid) && !g.LinkDrained(lid))) {
			out = append(out, lid)
		}
	}
	return out
}

// reachableStructural reports whether dst is reachable from src by the
// routing function ignoring all liveness and drain marks.
func (g *Graph) reachableStructural(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []NodeID{src}
	seen[src] = true
	var buf []LinkID
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = g.appendNextHops(buf[:0], cur, dst, true)
		for _, lid := range buf {
			to := g.Links[lid].To
			if to == dst {
				return true
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// Path returns one concrete up-down path of link IDs from host src to host
// dst, choosing among ECMP candidates with the select function (e.g. a flow
// hash or an RNG). It returns nil if no live path exists.
func (g *Graph) Path(src, dst NodeID, choose func(n int) int) []LinkID {
	var path []LinkID
	cur := src
	for cur != dst {
		hops := g.NextHops(cur, dst)
		if len(hops) == 0 {
			return nil
		}
		idx := 0
		if len(hops) > 1 && choose != nil {
			idx = choose(len(hops)) % len(hops)
			if idx < 0 {
				idx += len(hops)
			}
		}
		lid := hops[idx]
		path = append(path, lid)
		cur = g.Links[lid].To
		if len(path) > len(g.Links) { // defensive: routing must terminate on a DAG
			panic("topology: routing loop")
		}
	}
	return path
}

// Reachable reports whether dst is reachable from src along live links in
// the routing DAG (used by the controller to decide which processes are
// disconnected, §5.2).
func (g *Graph) Reachable(src, dst NodeID) bool {
	if g.nodeDead[src] || g.nodeDead[dst] || g.nodeDrained[src] || g.nodeDrained[dst] {
		return false
	}
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.NextHops(cur, dst) {
			to := g.Links[lid].To
			if to == dst {
				return true
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// HostConnected is the §5.2 liveness rule for a single-homed host: it is
// alive and has a live uplink AND a live downlink into the fabric. A host
// that can send but not receive is disconnected: its commit barrier can
// never advance, so it will never deliver again and its peers'
// scatterings toward it must be recalled. Drains are the caller's to add.
func (g *Graph) HostConnected(host NodeID) bool {
	return !g.nodeDead[host] && g.anyLive(g.Out[host]) && g.anyLive(g.In[host])
}

// anyLive reports whether any of the links is alive (LinkDead covers both
// endpoints).
func (g *Graph) anyLive(links []LinkID) bool {
	for _, lid := range links {
		if !g.LinkDead(lid) {
			return true
		}
	}
	return false
}

// IsDAG verifies the routing graph is acyclic (a structural invariant all
// barrier-propagation correctness rests on). Hosts act as sources and sinks
// only — a packet never routes *through* a host — so links terminating at a
// host do not propagate, mirroring Figure 3 where each host appears once on
// the sender side and once on the receiver side.
func (g *Graph) IsDAG() bool {
	indeg := make([]int, len(g.Nodes))
	for _, l := range g.Links {
		if g.Nodes[l.From].Kind != KindHost {
			indeg[l.To]++
		}
	}
	var queue []NodeID
	for i, d := range indeg {
		if d == 0 && g.Nodes[i].Kind != KindHost {
			queue = append(queue, NodeID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, lid := range g.Out[cur] {
			to := g.Links[lid].To
			if g.Nodes[to].Kind == KindHost {
				continue // sink: traffic terminates at hosts
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	nonHosts := 0
	for _, n := range g.Nodes {
		if n.Kind != KindHost {
			nonHosts++
		}
	}
	return seen == nonHosts
}
