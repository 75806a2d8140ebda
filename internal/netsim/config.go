package netsim

import (
	"onepipe/internal/clock"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Config parameterizes the network simulation; DefaultConfig fills it with
// the paper's testbed deployment (3 μs beacon interval).
type Config struct {
	Topo         topology.ClosConfig
	ProcsPerHost int
	Mode         Mode
	Clock        clock.Config
	Seed         int64

	// BeaconInterval is T_beacon of §4.2; the paper's deployment uses 3 μs.
	BeaconInterval sim.Time
	// DisableBeacons turns off all beacon generation (baselines that do
	// not use barrier aggregation).
	DisableBeacons bool
	// DisableEventRelay reverts beacon propagation to the paper's literal
	// per-link idle ticker (no relay-on-advance): each hop then adds up
	// to a full beacon interval of barrier lag. Kept as an ablation knob
	// — see DESIGN.md deviation #1.
	DisableEventRelay bool

	// Oversub (>= 1) divides above-ToR capacity, modeling an
	// oversubscribed core (Fig. 12b).
	Oversub float64

	// ECNThreshold marks packets whose egress queueing delay exceeds it
	// (DCTCP-style). QueueLimit tail-drops beyond it; 0 means lossless
	// (PFC semantics).
	ECNThreshold sim.Time
	QueueLimit   sim.Time

	// Impair attaches a composable impairment profile — uniform loss,
	// jitter, reordering, Gilbert-Elliott burst loss, duty-cycle loss, WAN
	// RTT classes — per link, per link class, or fabric-wide; nil keeps
	// links lossless and perfectly deterministic. It is the only loss and
	// jitter input (UniformLoss / UniformJitter / Uniform build the common
	// cases). See the Impairment type for the determinism contract.
	Impair *Profile
	// ControllerManagedCommit keeps a dead link inside commit-plane
	// aggregation until the controller's Resume step explicitly removes
	// it (ResumeCommitPlane); the best-effort plane always recovers
	// decentralized. Reliable-1Pipe deployments set this.
	ControllerManagedCommit bool
	// FlowECMP selects flow-hash path selection instead of the default
	// per-packet spraying.
	FlowECMP bool
}

// The testbed calibration (100 Gbps RoCEv2, 1–2 μs intra-rack RTT) no
// figure or test varies.
const (
	// DeadLinkBeacons is the number of silent beacon intervals after which
	// a switch declares an input link dead and removes it from barrier
	// aggregation (the paper uses 10).
	DeadLinkBeacons = 10
	// HostGbps is the host-link rate; fabricGbps is the per-host rate the
	// fabric provisions (fabric links are full-bisection trunks sized
	// from it — §7.1's "no oversubscription").
	HostGbps   = 100.0
	fabricGbps = 100.0

	// Propagation delays per link class.
	propHost      = 200 * sim.Nanosecond
	propTorSpine  = 300 * sim.Nanosecond
	propSpineCore = 400 * sim.Nanosecond
	propLoopback  = 20 * sim.Nanosecond
	// switchFwdDelay is the pipeline latency of one LOGICAL switch (a
	// physical switch is two logical halves and charges it twice for
	// turnaround traffic).
	switchFwdDelay = 150 * sim.Nanosecond
	// hostDelay is NIC+stack processing charged on both send and receive.
	hostDelay = 300 * sim.Nanosecond
	// cpuBeaconDelay is the extra beacon processing delay per hop in
	// ModeSwitchCPU; hostDelegateDelay is its ModeHostDelegate equivalent
	// (switch-host RTT plus host processing, ~2 μs per §7.2).
	cpuBeaconDelay    = 5 * sim.Microsecond
	hostDelegateDelay = 2 * sim.Microsecond
)

// DefaultConfig returns the testbed-calibrated configuration for the given
// topology and process count.
func DefaultConfig(topo topology.ClosConfig, procsPerHost int) Config {
	return Config{
		Topo:           topo,
		ProcsPerHost:   procsPerHost,
		Mode:           ModeChip,
		Clock:          clock.DefaultConfig(),
		Seed:           1,
		BeaconInterval: 3 * sim.Microsecond,
		Oversub:        1,
		ECNThreshold:   7 * sim.Microsecond,
	}
}

// NumProcs returns the total process count.
func (c Config) NumProcs() int { return c.Topo.NumHosts() * c.ProcsPerHost }

// propOf returns the one-way propagation delay of a link class.
func propOf(k topology.LinkKind) sim.Time {
	switch k {
	case topology.LinkHostUp, topology.LinkTorHostDown:
		return propHost
	case topology.LinkTorSpineUp, topology.LinkSpineTorDown:
		return propTorSpine
	case topology.LinkSpineCoreUp, topology.LinkCoreSpineDown:
		return propSpineCore
	case topology.LinkLoopback:
		return propLoopback
	}
	return 0
}
