package topology

// NextHops returns the candidate output links at node cur for a packet
// destined to host dst, implementing shortest up-down routing with ECMP.
// Dead links and links into dead nodes are filtered out, which models the
// SDN controller reconfiguring routes around failures (§3.1). The result is
// empty when the destination is unreachable from cur.
func (g *Graph) NextHops(cur, dst NodeID) []LinkID {
	return g.AppendNextHops(nil, cur, dst)
}

// AppendNextHops is NextHops appending into buf, so per-packet routing on
// the simulator's hot path can reuse one scratch slice instead of
// allocating candidates at every hop.
func (g *Graph) AppendNextHops(buf []LinkID, cur, dst NodeID) []LinkID {
	return g.appendNextHops(buf, cur, dst, false)
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

// DownstreamNeighbors returns, for a (possibly dead) logical node, the IDs
// of live nodes one hop downstream of it. These are the nodes whose barrier
// registers hold the failed node's last commit timestamp; the controller
// takes the maximum over them to determine the failure timestamp (§5.2).
func (g *Graph) DownstreamNeighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, lid := range g.Out[id] {
		to := g.Links[lid].To
		if !g.nodeDead[to] {
			out = append(out, to)
		}
	}
	return out
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
