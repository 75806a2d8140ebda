package netsim

import (
	"onepipe/internal/clock"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Config parameterizes the network simulation. Zero values are filled with
// defaults calibrated to the paper's testbed (100 Gbps RoCEv2, 1–2 μs
// intra-rack RTT, 3 μs beacon interval).
type Config struct {
	Topo         topology.ClosConfig
	ProcsPerHost int
	Mode         Mode
	Clock        clock.Config
	Seed         int64

	// BeaconInterval is T_beacon of §4.2; the paper's deployment uses 3 μs.
	BeaconInterval sim.Time
	// DeadLinkBeacons is the number of silent beacon intervals after which
	// a switch declares an input link dead and removes it from barrier
	// aggregation (the paper uses 10).
	DeadLinkBeacons int
	// DisableBeacons turns off all beacon generation (baselines that do
	// not use barrier aggregation).
	DisableBeacons bool
	// DisableEventRelay reverts beacon propagation to the paper's literal
	// per-link idle ticker (no relay-on-advance): each hop then adds up
	// to a full beacon interval of barrier lag. Kept as an ablation knob
	// — see DESIGN.md deviation #1.
	DisableEventRelay bool

	// HostGbps is the host-link rate; FabricGbps is the per-host rate the
	// fabric provisions (fabric links are full-bisection trunks sized
	// from it — §7.1's "no oversubscription"). Oversub (>= 1) divides
	// above-ToR capacity, modeling an oversubscribed core (Fig. 12b).
	HostGbps, FabricGbps float64
	Oversub              float64

	// Propagation delays per link class and per-device processing delays.
	PropHost, PropTorSpine, PropSpineCore, PropLoopback sim.Time
	// SwitchFwdDelay is the pipeline latency of one LOGICAL switch (a
	// physical switch is two logical halves and charges it twice for
	// turnaround traffic).
	SwitchFwdDelay sim.Time
	// HostDelay is NIC+stack processing charged on both send and receive.
	HostDelay sim.Time
	// CPUBeaconDelay is the extra beacon processing delay per hop in
	// ModeSwitchCPU; HostDelegateDelay is its ModeHostDelegate equivalent
	// (switch-host RTT plus host processing, ~2 μs per §7.2).
	CPUBeaconDelay    sim.Time
	HostDelegateDelay sim.Time

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

	// NonuniformPipeline reintroduces the pre-fix bug of DESIGN deviation
	// #8: loopback-entered packets skip the logical switch's forwarding
	// pipeline, so a freshly-stamped turnaround packet can overtake an
	// earlier-stamped packet onto the same egress and break the per-link
	// barrier promise. Exists only so the chaos harness can prove it
	// detects the breakage; never set it in real experiments.
	NonuniformPipeline bool
}

// DefaultConfig returns the testbed-calibrated configuration for the given
// topology and process count.
func DefaultConfig(topo topology.ClosConfig, procsPerHost int) Config {
	return Config{
		Topo:              topo,
		ProcsPerHost:      procsPerHost,
		Mode:              ModeChip,
		Clock:             clock.DefaultConfig(),
		Seed:              1,
		BeaconInterval:    3 * sim.Microsecond,
		DeadLinkBeacons:   10,
		HostGbps:          100,
		FabricGbps:        100,
		Oversub:           1,
		PropHost:          200 * sim.Nanosecond,
		PropTorSpine:      300 * sim.Nanosecond,
		PropSpineCore:     400 * sim.Nanosecond,
		PropLoopback:      20 * sim.Nanosecond,
		SwitchFwdDelay:    150 * sim.Nanosecond,
		HostDelay:         300 * sim.Nanosecond,
		CPUBeaconDelay:    5 * sim.Microsecond,
		HostDelegateDelay: 2 * sim.Microsecond,
		ECNThreshold:      7 * sim.Microsecond,
		QueueLimit:        0,
	}
}

// NumProcs returns the total process count.
func (c Config) NumProcs() int { return c.Topo.NumHosts() * c.ProcsPerHost }

// PropOf returns the one-way propagation delay of a link class.
func (c *Config) PropOf(k topology.LinkKind) sim.Time {
	switch k {
	case topology.LinkHostUp, topology.LinkTorHostDown:
		return c.PropHost
	case topology.LinkTorSpineUp, topology.LinkSpineTorDown:
		return c.PropTorSpine
	case topology.LinkSpineCoreUp, topology.LinkCoreSpineDown:
		return c.PropSpineCore
	case topology.LinkLoopback:
		return c.PropLoopback
	}
	return 0
}
