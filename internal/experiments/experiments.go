// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a named runner that sweeps the
// figure's parameter, drives the workload on the simulated data center,
// and emits the same rows/series the paper plots. The cmd/onepipe-bench
// tool calls into this package.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (e.g. reduced sweep at quick scale).
	Notes []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale sizes an experiment run: Quick keeps the full sweep *shape* while
// bounding process counts and windows for CI; Full reproduces the paper's
// axes.
type Scale struct {
	Name     string
	MaxProcs int
	Window   sim.Time
	Warmup   sim.Time
	Seeds    int
}

// Quick is the default scale used by `go test -bench`.
func Quick() Scale {
	return Scale{Name: "quick", MaxProcs: 64, Window: 400 * sim.Microsecond, Warmup: 150 * sim.Microsecond, Seeds: 1}
}

// Full reproduces the paper's sweeps (minutes of wall time).
func Full() Scale {
	return Scale{Name: "full", MaxProcs: 512, Window: 2 * sim.Millisecond, Warmup: 500 * sim.Microsecond, Seeds: 3}
}

// Runner is one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(sc Scale) *Table
}

// Registry lists every experiment, in figure order.
func Registry() []Runner {
	return []Runner{
		{"8a", "Total order broadcast throughput vs. process count", Fig8a},
		{"8b", "Total order broadcast latency vs. process count", Fig8b},
		{"9a", "Message delivery latency on an idle system", Fig9a},
		{"9b", "Delivery latency under packet loss", Fig9b},
		{"10", "Failure recovery time by failure type", Fig10},
		{"11", "Receiver reorder overhead vs. delivery latency", Fig11},
		{"12a", "Latency with background flows", Fig12a},
		{"12b", "Latency vs. oversubscription", Fig12b},
		{"13a", "Beacon CPU overhead vs. beacon interval", Fig13a},
		{"13b", "Beacon bandwidth overhead vs. beacon interval", Fig13b},
		{"14a", "Transactional KVS scalability", Fig14a},
		{"14b", "KVS latency vs. write fraction", Fig14b},
		{"14c", "KVS throughput vs. transaction size", Fig14c},
		{"15a", "TPC-C throughput scalability", Fig15a},
		{"15b", "TPC-C resilience to packet loss", Fig15b},
		{"16", "Replicated remote hash table throughput", Fig16},
		{"ceph", "Distributed storage replication latency (§7.3.4)", Ceph},
		{"ooo", "Out-of-order arrival fraction (§4.1 motivation)", OutOfOrder},
		{"haz", "WAW/IRIW ordering hazards, raw vs 1Pipe (§2.2.1)", Hazards},
		{"abl-barrier", "Ablation: barrier reordering vs naive drop", AblBarrier},
		{"abl-relay", "Ablation: event-driven relay vs per-link ticker", AblRelay},
		{"abl-ecmp", "Ablation: packet spraying vs flow ECMP", AblECMP},
		{"abl-beacon", "Ablation: beacon interval latency/overhead trade-off", AblBeacon},
		{"elastic", "Live reconfiguration: rolling join + spine drain under load", Elastic},
		{"proj", "Projected loss penalty at 32K hosts (§7.2 analysis)", Projection},
		{"stages", "Per-stage latency decomposition (Fig. 9/10 breakdown)", Stages},
		{"chaos", "Randomized fault sweep with invariant checking (harness)", ChaosSweep},
		{"scale", "Simulator scale: all-to-all on a 1024-host fabric", FabricScale},
		{"conflict", "Ablation: conflict-aware relaxed order vs unified, by conflict rate", Conflict},
		{"slo", "SLO race: p50/p99/p999 under one trace + impairment profile", SLO},
		{"serve", "Serving tier: closed-loop clients on the Fabric API (KV/txn/SMR/elastic)", Serve},
	}
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// topoFor picks a Clos sizing that hosts exactly n processes the way the
// paper does: up to 32 processes on distinct servers (growing the fabric),
// beyond that 32 servers with n/32 processes each.
func topoFor(n int) (topology.ClosConfig, int) {
	switch {
	case n <= 8:
		return topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: n, SpinesPerPod: 1, Cores: 1}, 1
	case n <= 16:
		return topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: n / 2, SpinesPerPod: 2, Cores: 1}, 1
	case n <= 32:
		return topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: n / 4, SpinesPerPod: 2, Cores: 2}, 1
	default:
		return topology.Testbed(), n / 32
	}
}

// deploy builds a 1Pipe cluster for n processes.
func deploy(n int, mutNet func(*netsim.Config), mutCore func(*core.Config)) *core.Cluster {
	topo, pph := topoFor(n)
	ncfg := netsim.DefaultConfig(topo, pph)
	if mutNet != nil {
		mutNet(&ncfg)
	}
	ccfg := core.DefaultConfig()
	if mutCore != nil {
		mutCore(&ccfg)
	}
	return core.Deploy(netsim.New(ncfg), ccfg)
}

// procSweep returns the figure's process-count axis, capped by scale.
func procSweep(sc Scale, full []int) []int {
	var out []int
	for _, n := range full {
		if n <= sc.MaxProcs {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{full[0]}
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// fm formats millions.
func fm(v float64) string { return fmt.Sprintf("%.2f", v/1e6) }
