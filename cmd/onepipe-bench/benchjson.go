package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	onepipe "onepipe"
	"onepipe/internal/experiments"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// committedReport is the report whose hand-set blocks (baseline,
// gate_floor) every -bench-json run copies, whatever its output path.
const committedReport = "BENCH_core.json"

// benchRow names the package benchmark one BENCH_core.json row comes from.
type benchRow struct {
	key   string // the row's name in BENCH_core.json
	pkg   string // import path of the package whose _test.go files hold it
	bench string // Benchmark function, with "/sub" for a sub-benchmark
}

// benchRows are the micro-benchmark rows. idle_pair_bytes is read from its
// benchmark's B/pair and pairs metrics; the others are ns, bytes and
// allocations per op.
var benchRows = []benchRow{
	{"engine_schedule", "onepipe/internal/sim", "BenchmarkEngineSchedule"},
	{"engine_schedule_far", "onepipe/internal/sim", "BenchmarkEngineScheduleFar"},
	{"timer_arm_cancel", "onepipe/internal/sim", "BenchmarkTimerArmCancel/cancel"},
	{"timer_arm_fire", "onepipe/internal/sim", "BenchmarkTimerArmCancel/fire"},
	{"wire_append_encode", "onepipe/internal/wire", "BenchmarkAppendEncode"},
	{"wire_decode_into", "onepipe/internal/wire", "BenchmarkDecodeInto"},
	{"send_path", "onepipe/internal/netsim", "BenchmarkSendPath"},
	{"send_be_round", "onepipe/internal/core", "BenchmarkBestEffortRound"},
	{"first_contact", "onepipe/internal/core", "BenchmarkFirstContact"},
	{"idle_pair_bytes", "onepipe/internal/core", "BenchmarkIdlePair"},
	{"node_barriers", "onepipe/internal/barrier", "BenchmarkNodeBarriers"},
	{"next_hop", "onepipe/internal/topology", "BenchmarkNextHop"},
}

// benchResult is one micro-benchmark's figures in BENCH_core.json: the
// median of medianRuns runs by ns/op, with the number of runs and the
// fastest and slowest ns/op beside it. Metrics holds the median run's
// b.ReportMetric values by unit.
type benchResult struct {
	NsPerOp     float64            `json:"ns_per_op"`
	Runs        int                `json:"runs,omitempty"`
	NsPerOpMin  float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64            `json:"ns_per_op_max,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"-"`
}

// scaleBench is the 1024-host fabric wall-time row (experiments.FabricScaleOnce):
// the median of medianRuns runs with the fastest and slowest beside it.
type scaleBench struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	Runs       int     `json:"runs,omitempty"`
	WallSMin   float64 `json:"wall_s_min,omitempty"`
	WallSMax   float64 `json:"wall_s_max,omitempty"`
	Events     uint64  `json:"events"`
	WindowUs   float64 `json:"window_us"`
}

// rateSpread is the spread of an end-to-end rate measured medianRuns times;
// the median sits in the rate's own field.
type rateSpread struct {
	Runs int     `json:"runs"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// idlePairRow is what a settled pair keeps on the heap.
type idlePairRow struct {
	Pairs        int     `json:"pairs"`
	BytesPerPair float64 `json:"bytes_per_pair"`
}

// benchReport is the machine-readable performance contract: refreshed by
// `make bench-json`, gated by CI's bench-smoke job (engine events/sec must
// stay at or above the hand-pinned gate_floor).
type benchReport struct {
	Generated          string  `json:"generated"`
	GoVersion          string  `json:"go_version"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	// Scale1024 is the wall time of the 1024-host fabric scale workload
	// (the -fig scale row).
	Scale1024 *scaleBench `json:"scale_1024,omitempty"`
	// E2EMsgsPerSec is the median of medianRuns runs, its spread beside it.
	E2EMsgsPerSec       float64           `json:"e2e_msgs_per_sec"`
	E2EMsgsPerSecSpread *rateSpread       `json:"e2e_msgs_per_sec_spread,omitempty"`
	SendOccupancy       *occupancySummary `json:"send_frame_occupancy,omitempty"`
	RecvOccupancy       *occupancySummary `json:"recv_batch_occupancy,omitempty"`
	// IdlePairBytes is the live heap a settled (src, dst) pair keeps.
	IdlePairBytes *idlePairRow           `json:"idle_pair_bytes,omitempty"`
	Benchmarks    map[string]benchResult `json:"benchmarks"`
	// Baseline (the pre-optimization numbers docs/performance.md compares
	// against) and GateFloor (what -bench-gate enforces) are set by hand,
	// each with a note of why, and every -bench-json run copies them
	// untouched from the committed report, so re-capturing it cannot move
	// either.
	Baseline  json.RawMessage `json:"baseline,omitempty"`
	GateFloor json.RawMessage `json:"gate_floor,omitempty"`
}

// medianRuns is how many times a median row is measured; the median is
// recorded with the min–max spread.
const medianRuns = 5

// median returns the index of the median of vals and their spread.
func median(vals []float64) (int, *rateSpread) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return idx[len(idx)/2], &rateSpread{Runs: len(vals), Min: vals[idx[0]], Max: vals[idx[len(idx)-1]]}
}

// runBench runs row's package benchmark medianRuns times at procs
// GOMAXPROCS in a `go test` child and reduces its result lines.
func runBench(row benchRow, procs int) (benchResult, error) {
	parts := strings.Split(row.bench, "/")
	for i, p := range parts {
		parts[i] = "^" + p + "$"
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", strings.Join(parts, "/"), "-benchmem",
		"-count", strconv.Itoa(medianRuns), "-cpu", strconv.Itoa(procs), row.pkg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return benchResult{}, fmt.Errorf("%s: %s %s: %v\n%s", row.key, row.pkg, row.bench, err, out.String())
	}
	runs := parseBench(out.String(), procs)[row.bench]
	if len(runs) == 0 {
		return benchResult{}, fmt.Errorf("%s: no result line for %s in:\n%s", row.key, row.bench, out.String())
	}
	return reduceRuns(runs), nil
}

// parseBench reads the result lines of `go test -bench` output, keyed by
// benchmark name with the -procs suffix the testing package adds at procs
// other than 1 removed: each line is a name, an iteration count and
// value/unit pairs (ns/op, any b.ReportMetric units, B/op, allocs/op).
func parseBench(out string, procs int) map[string][]benchResult {
	runs := make(map[string][]benchResult)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if procs != 1 {
			name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
		}
		r := benchResult{Metrics: make(map[string]float64)}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				r.Metrics[f[i+1]] = v
			}
		}
		runs[name] = append(runs[name], r)
	}
	return runs
}

// reduceRuns sorts runs by ns/op and returns the median one with the number
// of runs and the ns/op spread.
func reduceRuns(runs []benchResult) benchResult {
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	r := runs[len(runs)/2]
	r.Runs, r.NsPerOpMin, r.NsPerOpMax = len(runs), runs[0].NsPerOp, runs[len(runs)-1].NsPerOp
	return r
}

// readCommitted parses the committed report at path. A file that is
// missing, does not parse or has no gate_floor is an error, so the hand-set
// blocks can never drop out of a refreshed report unnoticed.
func readCommitted(path string) (benchReport, error) {
	var rep benchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.GateFloor) == 0 || string(rep.GateFloor) == "null" {
		return rep, fmt.Errorf("%s has no gate_floor", path)
	}
	return rep, nil
}

// occupancySummary is the shape of one batch-occupancy histogram in
// BENCH_core.json: how many messages shared a unit (wire frame on the send
// side, delivery batch on the receive side).
type occupancySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(h *stats.Histogram) occupancySummary {
	if h.N() == 0 {
		return occupancySummary{}
	}
	return occupancySummary{
		Count: h.N(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// benchE2E measures end-to-end ordered deliveries per wall-clock second on
// the public API: 32 processes each scattering 50 best-effort messages on
// the paper's testbed topology, with the default batching and the
// OnDeliverBatch fast path. The returned histograms aggregate send-frame
// and delivery-batch occupancy across all runs. There is no unbatched twin:
// frames here hold 1.56 messages on average, too few for coalescing to show
// in the rate; `-fig slo`'s unbatched row measures batching.
func benchE2E() (float64, *stats.Histogram, *stats.Histogram) {
	const procs, msgsEach = 32, 50
	delivered := 0
	sendOcc, recvOcc := &stats.Histogram{}, &stats.Histogram{}
	msg := make([]onepipe.Message, 1) // Send copies it
	start := time.Now()
	runs := 0
	for time.Since(start) < 2*time.Second {
		cl := onepipe.NewCluster(onepipe.Config{
			Topology:     onepipe.Testbed(),
			ProcsPerHost: 1,
			Seed:         int64(runs + 1),
		})
		for p := 0; p < procs; p++ {
			cl.Process(p).OnDeliverBatch(func(ds []onepipe.Delivery) { delivered += len(ds) })
		}
		for p := 0; p < procs; p++ {
			for k := 0; k < msgsEach; k++ {
				msg[0] = onepipe.Message{Dst: onepipe.ProcID((p + k + 1) % procs), Size: 64}
				cl.Process(p).Send(msg)
			}
		}
		cl.Run(500 * onepipe.Microsecond)
		s, r := cl.Core().Occupancy()
		sendOcc.Merge(s)
		recvOcc.Merge(r)
		runs++
	}
	return float64(delivered) / time.Since(start).Seconds(), sendOcc, recvOcc
}

// runBenchJSON runs the core benchmark set and writes outPath. The hand-set
// blocks (baseline, gate_floor) are copied untouched from committedPath.
func runBenchJSON(committedPath, outPath string) error {
	committed, err := readCommitted(committedPath)
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	procs := runtime.GOMAXPROCS(0)
	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: procs,
		Benchmarks: make(map[string]benchResult, len(benchRows)),
		Baseline:   committed.Baseline,
		GateFloor:  committed.GateFloor,
	}
	for _, row := range benchRows {
		r, err := runBench(row, procs)
		if err != nil {
			return fmt.Errorf("bench json: %w", err)
		}
		if row.key == "idle_pair_bytes" {
			rep.IdlePairBytes = &idlePairRow{Pairs: int(r.Metrics["pairs"]), BytesPerPair: r.Metrics["B/pair"]}
			continue
		}
		rep.Benchmarks[row.key] = r
	}
	rep.EngineEventsPerSec = 1e9 / rep.Benchmarks["engine_schedule"].NsPerOp
	scaleWindow := 400 * sim.Microsecond
	walls := make([]float64, medianRuns)
	var events uint64
	for i := range walls {
		walls[i], events, _, _ = experiments.FabricScaleOnce(scaleWindow)
	}
	mid, spread := median(walls)
	rep.Scale1024 = &scaleBench{
		GOMAXPROCS: procs,
		WallS:      walls[mid],
		Runs:       spread.Runs,
		WallSMin:   spread.Min,
		WallSMax:   spread.Max,
		Events:     events,
		WindowUs:   scaleWindow.Micros(),
	}
	// The occupancy histograms are the median run's.
	rates := make([]float64, medianRuns)
	sendOcc, recvOcc := make([]*stats.Histogram, medianRuns), make([]*stats.Histogram, medianRuns)
	for i := range rates {
		rates[i], sendOcc[i], recvOcc[i] = benchE2E()
	}
	mid, rep.E2EMsgsPerSecSpread = median(rates)
	rep.E2EMsgsPerSec = rates[mid]
	so, ro := summarize(sendOcc[mid]), summarize(recvOcc[mid])
	rep.SendOccupancy, rep.RecvOccupancy = &so, &ro

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Benchmarks[name]
		fmt.Printf("%-19s %8.1f ns/op (median of %d, %.1f–%.1f)  %d allocs/op  %d B/op\n",
			name, r.NsPerOp, r.Runs, r.NsPerOpMin, r.NsPerOpMax, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Printf("engine events/s %.2fM\n", rep.EngineEventsPerSec/1e6)
	fmt.Printf("idle pair   %8.1f heap bytes per settled pair (%d pairs)\n", rep.IdlePairBytes.BytesPerPair, rep.IdlePairBytes.Pairs)
	if sb := rep.Scale1024; sb != nil {
		fmt.Printf("scale 1024  %8.2f s wall  (median of %d, %.2f–%.2f; %d events, %.0fus window)\n",
			sb.WallS, sb.Runs, sb.WallSMin, sb.WallSMax, sb.Events, sb.WindowUs)
	}
	b := rep.E2EMsgsPerSecSpread
	fmt.Printf("e2e         %8.0f msgs/s  (median of %d, %.0f–%.0f)\n",
		rep.E2EMsgsPerSec, b.Runs, b.Min, b.Max)
	if rep.SendOccupancy != nil && rep.SendOccupancy.Count > 0 {
		fmt.Printf("frame occ   mean %.2f p50 %.0f p99 %.0f max %.0f (%d frames)\n",
			rep.SendOccupancy.Mean, rep.SendOccupancy.P50, rep.SendOccupancy.P99,
			rep.SendOccupancy.Max, rep.SendOccupancy.Count)
	}
	if rep.RecvOccupancy != nil && rep.RecvOccupancy.Count > 0 {
		fmt.Printf("deliver occ mean %.2f p50 %.0f p99 %.0f max %.0f (%d batches)\n",
			rep.RecvOccupancy.Mean, rep.RecvOccupancy.P50, rep.RecvOccupancy.P99,
			rep.RecvOccupancy.Max, rep.RecvOccupancy.Count)
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// runBenchGate re-measures engine scheduling and fails if events/sec fall
// below the hand-pinned gate_floor of the committed BENCH_core.json — the CI
// bench-smoke contract. The floor, not the file's last capture, is the gate:
// a capture is overwritten by every `-bench-json` run, so gating on it lets
// the bar sink 10% at a time. The ratio to the last capture is only printed.
// The engine figure is the gate because every simulated packet hop pays it
// and it is the least noisy of the set; the fastest of the runs is gated, to
// damp shared-runner noise.
func runBenchGate(committedPath string) error {
	committed, err := readCommitted(committedPath)
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	var floor struct {
		EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	}
	if err := json.Unmarshal(committed.GateFloor, &floor); err != nil || floor.EngineEventsPerSec <= 0 {
		return fmt.Errorf("bench gate: %s has no gate_floor.engine_events_per_sec", committedPath)
	}
	r, err := runBench(benchRows[0], runtime.GOMAXPROCS(0))
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	best, pinned := 1e9/r.NsPerOpMin, floor.EngineEventsPerSec
	fmt.Printf("bench gate: engine %.2fM events/s, floor %.2fM", best/1e6, pinned/1e6)
	if committed.EngineEventsPerSec > 0 {
		fmt.Printf(" (last capture %.2fM, ratio %.2f)", committed.EngineEventsPerSec/1e6, best/committed.EngineEventsPerSec)
	}
	fmt.Println()
	if best < pinned {
		return fmt.Errorf("bench gate: engine %.2fM events/s is below the pinned floor %.2fM", best/1e6, pinned/1e6)
	}
	return nil
}
