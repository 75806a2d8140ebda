// Package topology builds the routing graph of a multi-rooted Clos data
// center network as used by 1Pipe.
//
// Following Figure 3 of the paper, every physical switch is split into two
// logical switches — one for the uplink direction and one for the downlink
// direction — connected by a virtual "loopback" link that carries traffic
// turning around at that switch. With this split the routing graph of
// shortest up-down paths is a DAG, which is the property barrier-timestamp
// aggregation relies on: barriers propagate strictly downstream and every
// receiver's barrier transitively covers every sender.
package topology

import "fmt"

// NodeID identifies a logical node (host, up-switch, down-switch, or core).
type NodeID int32

// LinkID identifies a directed link.
type LinkID int32

// Kind classifies logical nodes.
type Kind uint8

const (
	// KindHost is an end host (both a sender and a receiver leaf).
	KindHost Kind = iota
	// KindSwitchUp is the uplink half of a physical switch.
	KindSwitchUp
	// KindSwitchDown is the downlink half of a physical switch.
	KindSwitchDown
	// KindCore is a core (top-layer) switch; it only turns traffic down,
	// so it is a single logical node.
	KindCore
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitchUp:
		return "up"
	case KindSwitchDown:
		return "down"
	case KindCore:
		return "core"
	}
	return "?"
}

// LinkKind classifies directed links; the network model assigns bandwidth
// and delay per kind (e.g. reduced uplink bandwidth models oversubscription).
type LinkKind uint8

const (
	// LinkHostUp connects a host to its ToR's uplink half.
	LinkHostUp LinkKind = iota
	// LinkTorSpineUp connects a ToR uplink half to a spine uplink half.
	LinkTorSpineUp
	// LinkSpineCoreUp connects a spine uplink half to a core.
	LinkSpineCoreUp
	// LinkCoreSpineDown connects a core to a spine downlink half.
	LinkCoreSpineDown
	// LinkSpineTorDown connects a spine downlink half to a ToR downlink half.
	LinkSpineTorDown
	// LinkTorHostDown connects a ToR downlink half to a host.
	LinkTorHostDown
	// LinkLoopback is the virtual link between the two halves of one
	// physical switch.
	LinkLoopback
)

// Node is a logical node in the routing DAG.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Phys groups the two halves of a physical switch (and a host with
	// itself): logical nodes with equal Phys fail together.
	Phys int
	// Pod is the pod index for ToR/spine switches and hosts; -1 for cores.
	Pod int
	// Rack is the rack index for hosts and ToRs; -1 otherwise.
	Rack int
}

// Link is a directed link in the routing DAG.
type Link struct {
	ID       LinkID
	From, To NodeID
	Kind     LinkKind
}

// ClosConfig sizes a 3-layer Clos network. The paper's testbed is
// {Pods: 2, RacksPerPod: 2, HostsPerRack: 8, SpinesPerPod: 2, Cores: 2} —
// 32 servers, 4 ToR + 4 spine + 2 core switches.
type ClosConfig struct {
	Pods         int
	RacksPerPod  int
	HostsPerRack int
	SpinesPerPod int
	Cores        int
}

// Testbed returns the paper's 32-server, 10-switch configuration.
func Testbed() ClosConfig {
	return ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 8, SpinesPerPod: 2, Cores: 2}
}

// Validate reports a descriptive error for a non-positive dimension.
func (c ClosConfig) Validate() error {
	if c.Pods <= 0 || c.RacksPerPod <= 0 || c.HostsPerRack <= 0 || c.SpinesPerPod <= 0 || c.Cores <= 0 {
		return fmt.Errorf("topology: all ClosConfig dimensions must be positive: %+v", c)
	}
	return nil
}

// NumHosts returns the total host count.
func (c ClosConfig) NumHosts() int { return c.Pods * c.RacksPerPod * c.HostsPerRack }

// Graph is a routing DAG plus mutable liveness state used for failure
// experiments. The DAG itself is mutable too: AddHost and AddSpine grow a
// running fabric (live reconfiguration), and Validate re-checks the
// structural invariants after any such edit. Config records the *initial*
// sizing only; after growth, the slices are authoritative.
type Graph struct {
	Config ClosConfig
	Nodes  []Node
	Links  []Link
	// Out and In hold the link IDs leaving and entering each node.
	Out [][]LinkID
	In  [][]LinkID
	// Hosts lists host node IDs in rack-major order; hosts joined later
	// append in arrival order.
	Hosts []NodeID

	// tors[pod][rack] -> physical index into upOf/downOf
	torUp, torDown     [][]NodeID
	spineUp, spineDown [][]NodeID
	cores              []NodeID

	nodeDead []bool
	linkDead []bool
	// nodeDrained marks gracefully departed nodes: routing avoids their
	// links like dead ones, but the failure machinery (dead-link scanner,
	// controller §5.2) must never treat them as failed.
	nodeDrained []bool
	// onDeath is called after every Kill* / Revive* call that changed a
	// death mark (SetDeathListener).
	onDeath func()
	// routes caches the routing function for NextHops; nil until the first
	// lookup after a mutation (dropRoutes).
	routes *routeTable

	// peerHalf maps an up-half to its down-half and vice versa.
	peerHalf []NodeID
	// hostIndex maps a host node ID to its index in Hosts; -1 for switches.
	hostIndex []int
	// nextPhys is the next unused physical-device index for grown nodes.
	nextPhys int
}

// addNode appends a logical node, growing every node-indexed side table in
// lockstep so the graph stays consistent under runtime growth.
func (g *Graph) addNode(k Kind, name string, phys, pod, rack int) NodeID {
	g.dropRoutes()
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: k, Name: name, Phys: phys, Pod: pod, Rack: rack})
	g.Out = append(g.Out, nil)
	g.In = append(g.In, nil)
	g.peerHalf = append(g.peerHalf, -1)
	g.nodeDead = append(g.nodeDead, false)
	g.nodeDrained = append(g.nodeDrained, false)
	if k == KindHost {
		g.hostIndex = append(g.hostIndex, len(g.Hosts))
		g.Hosts = append(g.Hosts, id)
	} else {
		g.hostIndex = append(g.hostIndex, -1)
	}
	return id
}

// addLink appends a directed link and indexes it in the adjacency lists.
func (g *Graph) addLink(from, to NodeID, k LinkKind) LinkID {
	g.dropRoutes()
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, Kind: k})
	g.Out[from] = append(g.Out[from], id)
	g.In[to] = append(g.In[to], id)
	g.linkDead = append(g.linkDead, false)
	return id
}

// NewClos builds the routing DAG for the given configuration. It panics on
// an invalid configuration (construction is programmer-controlled).
func NewClos(c ClosConfig) *Graph {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	g := &Graph{Config: c}

	addNode := g.addNode
	phys := 0

	// Hosts.
	for p := 0; p < c.Pods; p++ {
		for r := 0; r < c.RacksPerPod; r++ {
			for h := 0; h < c.HostsPerRack; h++ {
				rack := p*c.RacksPerPod + r
				addNode(KindHost, fmt.Sprintf("h%d", len(g.Hosts)), phys, p, rack)
				phys++
			}
		}
	}
	// ToRs (two halves each).
	g.torUp = make([][]NodeID, c.Pods)
	g.torDown = make([][]NodeID, c.Pods)
	for p := 0; p < c.Pods; p++ {
		g.torUp[p] = make([]NodeID, c.RacksPerPod)
		g.torDown[p] = make([]NodeID, c.RacksPerPod)
		for r := 0; r < c.RacksPerPod; r++ {
			rack := p*c.RacksPerPod + r
			g.torUp[p][r] = addNode(KindSwitchUp, fmt.Sprintf("tor%d.up", rack), phys, p, rack)
			g.torDown[p][r] = addNode(KindSwitchDown, fmt.Sprintf("tor%d.down", rack), phys, p, rack)
			phys++
		}
	}
	// Spines.
	g.spineUp = make([][]NodeID, c.Pods)
	g.spineDown = make([][]NodeID, c.Pods)
	for p := 0; p < c.Pods; p++ {
		g.spineUp[p] = make([]NodeID, c.SpinesPerPod)
		g.spineDown[p] = make([]NodeID, c.SpinesPerPod)
		for s := 0; s < c.SpinesPerPod; s++ {
			g.spineUp[p][s] = addNode(KindSwitchUp, fmt.Sprintf("spine%d.%d.up", p, s), phys, p, -1)
			g.spineDown[p][s] = addNode(KindSwitchDown, fmt.Sprintf("spine%d.%d.down", p, s), phys, p, -1)
			phys++
		}
	}
	// Cores.
	for i := 0; i < c.Cores; i++ {
		g.cores = append(g.cores, addNode(KindCore, fmt.Sprintf("core%d", i), phys, -1, -1))
		phys++
	}

	addLink := func(from, to NodeID, k LinkKind) { g.addLink(from, to, k) }

	for p := 0; p < c.Pods; p++ {
		for r := 0; r < c.RacksPerPod; r++ {
			up, down := g.torUp[p][r], g.torDown[p][r]
			g.peerHalf[up], g.peerHalf[down] = down, up
			addLink(up, down, LinkLoopback)
			rack := p*c.RacksPerPod + r
			for h := 0; h < c.HostsPerRack; h++ {
				host := g.Hosts[rack*c.HostsPerRack+h]
				addLink(host, up, LinkHostUp)
				addLink(down, host, LinkTorHostDown)
			}
			for s := 0; s < c.SpinesPerPod; s++ {
				addLink(up, g.spineUp[p][s], LinkTorSpineUp)
				addLink(g.spineDown[p][s], down, LinkSpineTorDown)
			}
		}
		for s := 0; s < c.SpinesPerPod; s++ {
			sup, sdown := g.spineUp[p][s], g.spineDown[p][s]
			g.peerHalf[sup], g.peerHalf[sdown] = sdown, sup
			addLink(sup, sdown, LinkLoopback)
			for _, core := range g.cores {
				addLink(sup, core, LinkSpineCoreUp)
				addLink(core, sdown, LinkCoreSpineDown)
			}
		}
	}

	g.nextPhys = phys
	return g
}

// AddHost grows rack (pod, rack) by one host attached to its existing ToR
// halves, returning the new host node and its two links (uplink, downlink).
// The edit is validated before it is visible to callers; an invalid target
// (out of range, dead or drained ToR) is rejected with the graph unchanged.
func (g *Graph) AddHost(pod, rack int) (NodeID, []LinkID, error) {
	if pod < 0 || pod >= len(g.torUp) || rack < 0 || rack >= len(g.torUp[pod]) {
		return -1, nil, fmt.Errorf("topology: AddHost(%d, %d): no such rack", pod, rack)
	}
	up, down := g.torUp[pod][rack], g.torDown[pod][rack]
	if g.nodeDead[up] || g.nodeDead[down] || g.nodeDrained[up] || g.nodeDrained[down] {
		return -1, nil, fmt.Errorf("topology: AddHost(%d, %d): ToR is dead or drained", pod, rack)
	}
	globalRack := g.Nodes[up].Rack
	id := g.addNode(KindHost, fmt.Sprintf("h%d", len(g.Hosts)), g.nextPhys, pod, globalRack)
	g.nextPhys++
	lu := g.addLink(id, up, LinkHostUp)
	ld := g.addLink(down, id, LinkTorHostDown)
	if err := g.Validate(); err != nil {
		return -1, nil, fmt.Errorf("topology: AddHost(%d, %d): %w", pod, rack, err)
	}
	return id, []LinkID{lu, ld}, nil
}

// AddSpine grows pod p's spine set by one physical switch (two logical
// halves), wiring it to every ToR in the pod and every core, and returns
// the halves plus all new links. ECMP routing picks the new paths up
// immediately: adding a node or a link drops the route table NextHops
// reads, and the next lookup rebuilds it from the adjacency lists.
func (g *Graph) AddSpine(pod int) (up, down NodeID, links []LinkID, err error) {
	if pod < 0 || pod >= len(g.spineUp) {
		return -1, -1, nil, fmt.Errorf("topology: AddSpine(%d): no such pod", pod)
	}
	s := len(g.spineUp[pod])
	up = g.addNode(KindSwitchUp, fmt.Sprintf("spine%d.%d.up", pod, s), g.nextPhys, pod, -1)
	down = g.addNode(KindSwitchDown, fmt.Sprintf("spine%d.%d.down", pod, s), g.nextPhys, pod, -1)
	g.nextPhys++
	g.peerHalf[up], g.peerHalf[down] = down, up
	g.spineUp[pod] = append(g.spineUp[pod], up)
	g.spineDown[pod] = append(g.spineDown[pod], down)
	links = append(links, g.addLink(up, down, LinkLoopback))
	for r := range g.torUp[pod] {
		links = append(links, g.addLink(g.torUp[pod][r], up, LinkTorSpineUp))
		links = append(links, g.addLink(down, g.torDown[pod][r], LinkSpineTorDown))
	}
	for _, core := range g.cores {
		links = append(links, g.addLink(up, core, LinkSpineCoreUp))
		links = append(links, g.addLink(core, down, LinkCoreSpineDown))
	}
	if err := g.Validate(); err != nil {
		return -1, -1, nil, fmt.Errorf("topology: AddSpine(%d): %w", pod, err)
	}
	return up, down, links, nil
}

// SpineUps returns the up-half node IDs of pod p's spines (grown ones
// included), for callers that manage spine membership.
func (g *Graph) SpineUps(pod int) []NodeID { return g.spineUp[pod] }

// HostIndex maps a host node ID to its index in Hosts (and thus to its
// clock / process block), or -1 for non-host nodes. Hosts joined at runtime
// get IDs after the switches, so the identity mapping from the initial
// rack-major layout does not hold in general.
func (g *Graph) HostIndex(id NodeID) int { return g.hostIndex[id] }

// Validate re-checks the structural invariants every mutation must
// preserve: index/adjacency consistency, acyclicity of the switch graph,
// every host wired with an uplink and a downlink, and all-pairs host
// reachability ignoring liveness marks. It is invoked by the mutating
// builders and should be called after any manual edit; a non-nil error
// means the edit must not be activated.
func (g *Graph) Validate() error {
	if len(g.Out) != len(g.Nodes) || len(g.In) != len(g.Nodes) ||
		len(g.peerHalf) != len(g.Nodes) || len(g.nodeDead) != len(g.Nodes) ||
		len(g.nodeDrained) != len(g.Nodes) || len(g.hostIndex) != len(g.Nodes) {
		return fmt.Errorf("node side tables out of sync with %d nodes", len(g.Nodes))
	}
	if len(g.linkDead) != len(g.Links) {
		return fmt.Errorf("linkDead has %d entries for %d links", len(g.linkDead), len(g.Links))
	}
	for i, n := range g.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("node %d records ID %d", i, n.ID)
		}
	}
	for i, l := range g.Links {
		if int(l.ID) != i {
			return fmt.Errorf("link %d records ID %d", i, l.ID)
		}
		if l.From < 0 || int(l.From) >= len(g.Nodes) || l.To < 0 || int(l.To) >= len(g.Nodes) {
			return fmt.Errorf("link %d endpoints (%d -> %d) out of range", i, l.From, l.To)
		}
	}
	for n, outs := range g.Out {
		for _, lid := range outs {
			if lid < 0 || int(lid) >= len(g.Links) || g.Links[lid].From != NodeID(n) {
				return fmt.Errorf("Out[%d] lists link %d which does not originate there", n, lid)
			}
		}
	}
	for n, ins := range g.In {
		for _, lid := range ins {
			if lid < 0 || int(lid) >= len(g.Links) || g.Links[lid].To != NodeID(n) {
				return fmt.Errorf("In[%d] lists link %d which does not terminate there", n, lid)
			}
		}
	}
	for _, l := range g.Links {
		if !containsLink(g.Out[l.From], l.ID) || !containsLink(g.In[l.To], l.ID) {
			return fmt.Errorf("link %d missing from adjacency lists", l.ID)
		}
	}
	if !g.IsDAG() {
		return fmt.Errorf("switch graph is cyclic")
	}
	for hi, h := range g.Hosts {
		if g.Nodes[h].Kind != KindHost {
			return fmt.Errorf("Hosts[%d] = node %d which is a %s", hi, h, g.Nodes[h].Kind)
		}
		if g.hostIndex[h] != hi {
			return fmt.Errorf("hostIndex[%d] = %d, want %d", h, g.hostIndex[h], hi)
		}
		var hasUp, hasDown bool
		for _, lid := range g.Out[h] {
			if g.Links[lid].Kind == LinkHostUp {
				hasUp = true
			}
		}
		for _, lid := range g.In[h] {
			if g.Links[lid].Kind == LinkTorHostDown {
				hasDown = true
			}
		}
		if !hasUp || !hasDown {
			return fmt.Errorf("host %d is missing an uplink or downlink", h)
		}
	}
	// Routing completeness: ignoring liveness marks, every ordered host
	// pair must be connected by the up-down routing function. This is what
	// catches a structurally-sound-looking edit that NextHops cannot
	// actually route over.
	for _, src := range g.Hosts {
		for _, dst := range g.Hosts {
			if src == dst {
				continue
			}
			if !g.reachableStructural(src, dst) {
				return fmt.Errorf("host %d cannot route to host %d", src, dst)
			}
		}
	}
	return nil
}

func containsLink(list []LinkID, id LinkID) bool {
	for _, l := range list {
		if l == id {
			return true
		}
	}
	return false
}

// DrainNode marks a node gracefully departed: its links vanish from
// routing exactly like dead ones, but NodeDead stays false so the failure
// pipeline (scanner reports, §5.2 failure declaration) never fires for it.
func (g *Graph) DrainNode(id NodeID) {
	g.nodeDrained[id] = true
	g.dropRoutes()
}

// UndrainNode clears a drain mark — used by two-phase activation, where a
// freshly grown node stays drained (invisible to routing) until its link
// registers are seeded.
func (g *Graph) UndrainNode(id NodeID) {
	g.nodeDrained[id] = false
	g.dropRoutes()
}

// NodeDrained reports whether a node has been gracefully drained.
func (g *Graph) NodeDrained(id NodeID) bool { return g.nodeDrained[id] }

// LinkDrained reports whether either endpoint of a link is drained.
func (g *Graph) LinkDrained(id LinkID) bool {
	l := g.Links[id]
	return g.nodeDrained[l.From] || g.nodeDrained[l.To]
}

// Host returns the node ID of the i-th host.
func (g *Graph) Host(i int) NodeID { return g.Hosts[i] }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.Nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.Links[id] }

// PeerHalf returns the other logical half of a physical switch, or -1 for
// hosts and cores.
func (g *Graph) PeerHalf(id NodeID) NodeID { return g.peerHalf[id] }

// SetDeathListener installs fn, called after every Kill* or Revive* call
// that changed at least one death mark — once per call. A simulator that
// mirrors deadness on its hot path re-reads NodeDead and LinkDead there
// instead of on every packet. A later call replaces the listener.
func (g *Graph) SetDeathListener(fn func()) { g.onDeath = fn }

// mark sets one death mark and reports whether it changed.
func mark(marks []bool, i int, dead bool) bool {
	if marks[i] == dead {
		return false
	}
	marks[i] = dead
	return true
}

// notifyIf drops the route table and calls the death listener when a death
// mark changed.
func (g *Graph) notifyIf(changed bool) {
	if !changed {
		return
	}
	g.dropRoutes()
	if g.onDeath != nil {
		g.onDeath()
	}
}

// KillNode marks a logical node dead. Killing either half of a physical
// switch via KillPhys is the usual entry point.
func (g *Graph) KillNode(id NodeID) { g.notifyIf(mark(g.nodeDead, int(id), true)) }

// KillPhys marks every logical node of a physical device dead.
func (g *Graph) KillPhys(phys int) {
	changed := false
	for i := range g.Nodes {
		if g.Nodes[i].Phys == phys {
			changed = mark(g.nodeDead, i, true) || changed
		}
	}
	g.notifyIf(changed)
}

// KillLink marks a directed link dead.
func (g *Graph) KillLink(id LinkID) { g.notifyIf(mark(g.linkDead, int(id), true)) }

// Revive clears all death marks.
func (g *Graph) Revive() {
	changed := false
	for i := range g.nodeDead {
		changed = mark(g.nodeDead, i, false) || changed
	}
	for i := range g.linkDead {
		changed = mark(g.linkDead, i, false) || changed
	}
	g.notifyIf(changed)
}

// ReviveLink clears the death mark of a single link — a repaired cable or a
// healed partition cut. The endpoints' own liveness is untouched.
func (g *Graph) ReviveLink(id LinkID) { g.notifyIf(mark(g.linkDead, int(id), false)) }

// ReviveNode clears the death mark of a single logical node.
func (g *Graph) ReviveNode(id NodeID) { g.notifyIf(mark(g.nodeDead, int(id), false)) }

// NodeDead reports whether a node is marked dead.
func (g *Graph) NodeDead(id NodeID) bool { return g.nodeDead[id] }

// LinkDead reports whether a link or either endpoint is dead.
func (g *Graph) LinkDead(id LinkID) bool {
	l := g.Links[id]
	return g.linkDead[id] || g.nodeDead[l.From] || g.nodeDead[l.To]
}

// LinkBetween returns the link from one node to another, or -1.
func (g *Graph) LinkBetween(from, to NodeID) LinkID {
	for _, lid := range g.Out[from] {
		if g.Links[lid].To == to {
			return lid
		}
	}
	return -1
}

// NumSwitchHops returns the number of switch hops on the up-down path
// between two hosts: 1 within a rack, 3 within a pod, 5 across pods. The
// paper quotes these same counts for its testbed (§7.2).
func (g *Graph) NumSwitchHops(a, b NodeID) int {
	na, nb := g.Nodes[a], g.Nodes[b]
	switch {
	case na.Rack == nb.Rack:
		return 1
	case na.Pod == nb.Pod:
		return 3
	default:
		return 5
	}
}
