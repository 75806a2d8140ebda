package main

import (
	"onepipe"
	"onepipe/internal/serve"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

// workloadDef is one fixed-work workload on the deterministic simulated
// fabric: single engine, default core/netsim configuration, everything
// random drawn from -seed.
type workloadDef struct {
	name string
	// why is the one line BENCHMARK.json and the README carry.
	why          string
	topo         onepipe.Topology
	procsPerHost int
	loss         float64 // uniform per-link loss; 0 = loss-free
	// warmup is simulated time run before the measured window (part of
	// setup_s). windowPerSec is the fixed simulated window per second of
	// -seconds, frozen so the fixed part takes about 0.8 × -seconds of wall
	// on the 2-core reference box at the commit that added the benchmark; a
	// faster simulator fills the rest of -seconds with extra segments that
	// only the wall metrics read.
	warmup       sim.Time
	windowPerSec sim.Time
	// source builds the open-loop generator; nil marks the closed-loop
	// serving workload, which takes clients instead.
	source  func(procs int, seed int64) workload.Source
	clients int
}

var workloads = []workloadDef{
	{
		name: "bcast-be",
		why: "paper Fig. 8 all-to-all of 64 B best-effort messages, 64 procs at 5 M msg/s each: " +
			"per-packet cost in sim, netsim hops and core send/recv/reorder dominates; serve idle, beacons suppressed",
		topo: onepipe.Testbed(), procsPerHost: 2,
		warmup: 200 * sim.Microsecond, windowPerSec: 215 * sim.Microsecond,
		source: func(procs int, _ int64) workload.Source {
			// rng-free schedule; the seed still moves clock skew and ECMP draws.
			return workload.NewRoundRobin(procs, 200*sim.Nanosecond, 64, false)
		},
	},
	{
		name: "scatter-rel-loss",
		why: "4-way reliable 4 KiB scatterings under 1e-3 link loss: core used the other way (2PC, reassembly, " +
			"NAK/RTO retransmit), so a best-effort gain that taxes the reliable path shows",
		topo: onepipe.Testbed(), procsPerHost: 1, loss: 1e-3,
		warmup: 200 * sim.Microsecond, windowPerSec: 1800 * sim.Microsecond,
		source: func(procs int, seed int64) workload.Source {
			return workload.NewSynthetic(workload.SyntheticConfig{Procs: procs, MeanGap: 160 * sim.Nanosecond,
				Fanout: 4, Size: workload.FixedSize(4096), ReliableFrac: 1, Seed: seed})
		},
	},
	{
		name: "sparse-fabric",
		why: "512 almost idle hosts at 20 k msg/s each, beacons outnumber messages: netsim aggregate/relay and " +
			"sim heap depth do the work, core little; beacon, relay and sharding changes must show here",
		topo:         onepipe.Topology{Pods: 8, RacksPerPod: 4, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8},
		procsPerHost: 1,
		warmup:       200 * sim.Microsecond, windowPerSec: 1000 * sim.Microsecond,
		source: func(procs int, seed int64) workload.Source {
			return workload.NewSynthetic(workload.SyntheticConfig{Procs: procs, MeanGap: 100 * sim.Nanosecond,
				Fanout: 1, Size: workload.FixedSize(64), Seed: seed})
		},
	},
	{
		name: "serve-kv",
		why: "closed loop of 32768 KV clients (Zipf 0.99, 30% reliable writes, 1 ms think) below the knee: " +
			"only here do serve and the Fabric facade carry weight; a lower-layer gain is diluted",
		topo: onepipe.Testbed(), procsPerHost: 2,
		warmup: 1250 * sim.Microsecond, windowPerSec: 460 * sim.Microsecond,
		clients: 32768,
	},
}

// closedLoop reports whether the workload is the serving tier's closed loop
// (its unit of work is a request) rather than an open-loop generator.
func (d *workloadDef) closedLoop() bool { return d.source == nil }

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serveConfig is serve.DefaultConfig() sized and seeded for the workload.
// RecordLog is on because the tier's own histogram quantizes latencies to
// 1 us below 32 us; the log gives the exact client-observed nanoseconds the
// percentiles are read from.
func (d *workloadDef) serveConfig(seed int64) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Clients = d.clients
	cfg.Seed = seed
	cfg.RecordLog = true
	return cfg
}
