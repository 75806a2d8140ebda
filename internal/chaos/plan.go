// Package chaos is a randomized, fully deterministic cluster torture
// harness in the FoundationDB simulation-testing tradition. One seed
// derives a random Clos topology, a mixed best-effort/reliable workload,
// and a timed fault schedule (loss bursts, link/switch/host failures,
// partitions with controller forwarding, clock skew, beacon loss), all
// executed on internal/netsim + internal/core + internal/controller. The
// delivery-contract oracle (internal/oracle) then validates the paper's
// invariants from the global logs; see docs/testing.md for the
// catalog and the workflow (seed replay, schedule minimization, CI).
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"onepipe/internal/clock"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind uint8

const (
	// FaultLossBurst raises the uniform per-link corruption rate for a
	// window — packet loss, and (since beacons are packets too) beacon loss.
	FaultLossBurst FaultKind = iota
	// FaultLinkDown permanently kills one directed fabric or host link.
	FaultLinkDown
	// FaultHostCrash fail-stops a host: its node dies in the topology and
	// its lib1pipe runtime halts.
	FaultHostCrash
	// FaultSwitchCrash fail-stops a physical switch (both logical halves).
	FaultSwitchCrash
	// FaultPartition cuts one pod off the core layer for a window, then
	// heals the cut. Both sides stay controller-reachable, so stuck senders
	// escalate into §5.2 Controller Forwarding.
	FaultPartition
)

func (k FaultKind) String() string {
	switch k {
	case FaultLossBurst:
		return "loss-burst"
	case FaultLinkDown:
		return "link-down"
	case FaultHostCrash:
		return "host-crash"
	case FaultSwitchCrash:
		return "switch-crash"
	case FaultPartition:
		return "partition"
	}
	return "?"
}

// Fault is one scheduled fault. Every fault is self-contained: windowed
// faults (loss bursts, partitions) carry their own end time, so the
// minimizer can drop any subset and the rest still replays identically.
type Fault struct {
	At   sim.Time
	Kind FaultKind
	// Dur is the window length for FaultLossBurst and FaultPartition.
	Dur sim.Time
	// Rate is the burst loss probability for FaultLossBurst.
	Rate float64
	// Host is the target host index for FaultHostCrash.
	Host int
	// Link is the target link for FaultLinkDown.
	Link topology.LinkID
	// Phys is the physical switch index for FaultSwitchCrash.
	Phys int
	// Pod is the pod cut off by FaultPartition.
	Pod int
}

func (f Fault) String() string {
	switch f.Kind {
	case FaultLossBurst:
		return fmt.Sprintf("@%v %s rate=%.2f dur=%v", f.At, f.Kind, f.Rate, f.Dur)
	case FaultLinkDown:
		return fmt.Sprintf("@%v %s link=%d", f.At, f.Kind, f.Link)
	case FaultHostCrash:
		return fmt.Sprintf("@%v %s host=%d", f.At, f.Kind, f.Host)
	case FaultSwitchCrash:
		return fmt.Sprintf("@%v %s phys=%d", f.At, f.Kind, f.Phys)
	case FaultPartition:
		return fmt.Sprintf("@%v %s pod=%d dur=%v", f.At, f.Kind, f.Pod, f.Dur)
	}
	return fmt.Sprintf("@%v ?", f.At)
}

// JoinEvent schedules an epoch-based live host join (internal/reconfig) at
// an absolute run time: a fresh host is attached under the given rack, its
// processes appear at the tail of the process space, and — once the join
// epoch commits — they start running the same recorded workload as the
// incumbents.
type JoinEvent struct {
	At   sim.Time
	Pod  int
	Rack int
}

// DrainEvent schedules a graceful departure: a host (by index) or, with
// Switch set, a physical switch (by Phys). Unlike the fault schedule these
// are decisions, not failures — no failure record, recall, or callback may
// result, which the drain checkers enforce.
type DrainEvent struct {
	At     sim.Time
	Host   int
	Phys   int
	Switch bool
}

// Workload parameterizes the seed-derived traffic mix.
type Workload struct {
	// Interval is the mean per-process send period.
	Interval sim.Time
	// Stop is when senders fall silent, leaving the tail of the run for
	// retransmission, failure handling and barrier drain.
	Stop sim.Time
	// MaxFanout bounds scattering width (1 = unicast only).
	MaxFanout int
	// ReliableFrac is the probability a scattering uses the reliable plane.
	ReliableFrac float64
	// MsgBytes is the payload size of each scattering member.
	MsgBytes int
}

// Plan is everything one run needs, fully derived from a single seed. The
// fault schedule is materialized up front (not drawn during the run), so a
// subset of it — as produced by the minimizer — replays byte-identically.
type Plan struct {
	Seed         int64
	Topo         topology.ClosConfig
	ProcsPerHost int
	Mode         core.DeliveryMode
	BaseLoss     float64
	Jitter       sim.Time
	FlowECMP     bool
	SkewedClocks bool
	MaxRetx      int
	RunFor       sim.Time
	Workload     Workload
	Faults       []Fault

	// BatchWindow, when nonzero, overrides the endpoints' sender-side
	// coalescing window (0 keeps the core default). Seed derivation never
	// sets it, so existing golden digests are unaffected; the wire-capture
	// harness widens it to harvest multi-message frames.
	BatchWindow sim.Time

	// ConflictRate is the probability a workload scattering is tagged with a
	// nonzero conflict key (drawn from a dedicated RNG stream, so the base
	// workload is unchanged). Meaningful with Mode DeliverConflictAware;
	// crafted-scenario knob, seed derivation never sets it, so existing
	// golden digests are unaffected.
	ConflictRate float64

	// Joins and Drains schedule live membership changes (epoch-based
	// reconfiguration). Seed derivation never sets them — like BatchWindow
	// they are crafted-scenario knobs, so existing golden digests are
	// unaffected.
	Joins  []JoinEvent
	Drains []DrainEvent

	// Impair, when set, replaces the uniform BaseLoss/Jitter profile with
	// a crafted one (netsim.Config.Impair): Gilbert-Elliott burst loss,
	// duty-cycle loss, reorder, RTT classes. Like BatchWindow it is a
	// crafted-scenario knob seed derivation never sets, so existing golden
	// digests are unaffected.
	Impair *netsim.Profile
}

// quiesce is the post-workload tail left for every outstanding scattering
// to resolve: MaxRetx*RTO retransmission, dead-link detection, controller
// aggregation + Raft + broadcast, and a second MaxRetx*RTO for the recalls
// issued during the abort, with generous headroom.
const quiesce = 5 * sim.Millisecond

// NewPlan derives a complete plan from one seed. All randomness is consumed
// here, before the run starts; Run adds none of its own beyond the seeded
// engine and netsim RNGs.
func NewPlan(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}

	// (a) Random Clos topology: 4..24 hosts, one to three tiers exercised.
	p.Topo = topology.ClosConfig{
		Pods:         1 + rng.Intn(2),
		RacksPerPod:  1 + rng.Intn(2),
		HostsPerRack: 2 + rng.Intn(3),
		SpinesPerPod: 1 + rng.Intn(2),
		Cores:        1 + rng.Intn(2),
	}
	p.ProcsPerHost = 1 + rng.Intn(2)

	p.Mode = core.DeliverSeparate
	if rng.Intn(2) == 0 {
		p.Mode = core.DeliverUnified
	}
	p.BaseLoss = []float64{0, 0, 0.002, 0.01}[rng.Intn(4)]
	p.Jitter = []sim.Time{0, 200 * sim.Nanosecond, 2 * sim.Microsecond}[rng.Intn(3)]
	p.FlowECMP = rng.Intn(3) == 0 // mostly per-packet spraying: the hard case
	p.SkewedClocks = rng.Intn(2) == 0
	p.MaxRetx = 10
	p.RunFor = 9 * sim.Millisecond

	// (b) Workload mix.
	p.Workload = Workload{
		Interval:     sim.Time(3+rng.Intn(6)) * sim.Microsecond,
		Stop:         p.RunFor - quiesce,
		MaxFanout:    1 + rng.Intn(3),
		ReliableFrac: 0.3 + 0.4*rng.Float64(),
		MsgBytes:     64 + rng.Intn(512),
	}

	// (c) Fault schedule. Destructive faults are budgeted against a scratch
	// graph so the cluster never loses its majority: at most a third of the
	// hosts may end up crashed or disconnected.
	p.Faults = derivedFaults(rng, p)
	return p
}

// derivedFaults draws 1..5 faults inside the workload window, keeping at
// least two thirds of the hosts alive and connected.
func derivedFaults(rng *rand.Rand, p Plan) []Fault {
	scratch := topology.NewClos(p.Topo)
	hosts := p.Topo.NumHosts()
	downBudget := hosts / 3
	down := 0
	countDown := func() int {
		n := 0
		for hi := 0; hi < hosts; hi++ {
			if !scratch.HostConnected(scratch.Host(hi)) {
				n++
			}
		}
		return n
	}

	n := 1 + rng.Intn(5)
	var faults []Fault
	// Faults land in the middle of the workload window so traffic exists
	// both before and after each one.
	window := p.Workload.Stop - sim.Millisecond
	for i := 0; i < n; i++ {
		at := 500*sim.Microsecond + sim.Time(rng.Int63n(int64(window)))
		switch k := rng.Intn(6); k {
		case 0, 1: // loss bursts are the most common fault
			faults = append(faults, Fault{
				At: at, Kind: FaultLossBurst,
				Dur:  sim.Time(100+rng.Intn(900)) * sim.Microsecond,
				Rate: 0.02 + 0.2*rng.Float64(),
			})
		case 2:
			lid := topology.LinkID(rng.Intn(len(scratch.Links)))
			if scratch.Link(lid).Kind == topology.LinkLoopback {
				continue // loopbacks are virtual; killing one is not a cable fault
			}
			scratch.KillLink(lid)
			if countDown() > downBudget {
				scratch.ReviveLink(lid)
				continue
			}
			faults = append(faults, Fault{At: at, Kind: FaultLinkDown, Link: lid})
		case 3:
			hi := rng.Intn(hosts)
			if scratch.NodeDead(scratch.Host(hi)) || down+1 > downBudget {
				continue
			}
			scratch.KillNode(scratch.Host(hi))
			if countDown() > downBudget {
				scratch.ReviveNode(scratch.Host(hi))
				continue
			}
			faults = append(faults, Fault{At: at, Kind: FaultHostCrash, Host: hi})
		case 4:
			// Kill a random non-host physical switch.
			sw := scratch.Nodes[len(scratch.Hosts)+rng.Intn(len(scratch.Nodes)-len(scratch.Hosts))]
			marked := markPhys(scratch, sw.Phys, true)
			if countDown() > downBudget {
				markPhysOff(scratch, marked)
				continue
			}
			faults = append(faults, Fault{At: at, Kind: FaultSwitchCrash, Phys: sw.Phys})
		case 5:
			if p.Topo.Pods < 2 {
				continue
			}
			// Cutting a pod from the cores must leave it merely partitioned,
			// not disconnected: HostConnected only checks host links, so
			// this never trips the budget.
			faults = append(faults, Fault{
				At: at, Kind: FaultPartition,
				Pod: rng.Intn(p.Topo.Pods),
				Dur: sim.Time(500+rng.Intn(1500)) * sim.Microsecond,
			})
		}
		down = countDown()
	}
	return faults
}

func markPhys(g *topology.Graph, phys int, dead bool) []topology.NodeID {
	var marked []topology.NodeID
	for i := range g.Nodes {
		if g.Nodes[i].Phys == phys && !g.NodeDead(g.Nodes[i].ID) {
			g.KillNode(g.Nodes[i].ID)
			marked = append(marked, g.Nodes[i].ID)
		}
	}
	return marked
}

func markPhysOff(g *topology.Graph, marked []topology.NodeID) {
	for _, id := range marked {
		g.ReviveNode(id)
	}
}

// NetConfig materializes the netsim configuration for this plan.
func (p *Plan) NetConfig() netsim.Config {
	cfg := netsim.DefaultConfig(p.Topo, p.ProcsPerHost)
	cfg.Seed = p.Seed
	cfg.Impair = p.Impair
	if cfg.Impair == nil {
		cfg.Impair = netsim.Uniform(netsim.Impairment{Loss: p.BaseLoss, Jitter: p.Jitter})
	}
	cfg.FlowECMP = p.FlowECMP
	cfg.ControllerManagedCommit = true
	if p.SkewedClocks {
		cfg.Clock = clock.Config{
			SyncInterval: 10 * sim.Millisecond,
			MaxOffset:    2 * sim.Microsecond,
			MaxDriftPPM:  50,
		}
	} else {
		cfg.Clock = clock.Perfect()
	}
	return cfg
}

// CoreConfig materializes the endpoint configuration for this plan.
func (p *Plan) CoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = p.Mode
	cfg.MaxRetx = p.MaxRetx
	if p.BatchWindow != 0 {
		cfg.BatchWindow = p.BatchWindow
	}
	return cfg
}

// String renders a replay-oriented one-line summary.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d topo=%+v pph=%d mode=%d loss=%.3f jitter=%v ecmp=%v skew=%v faults=%d",
		p.Seed, p.Topo, p.ProcsPerHost, p.Mode, p.BaseLoss, p.Jitter, p.FlowECMP, p.SkewedClocks, len(p.Faults))
	return b.String()
}
