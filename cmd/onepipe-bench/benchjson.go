package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// committedReport is the report -bench-json refreshes and -bench-gate reads.
const committedReport = "BENCH_core.json"

// benchRow names the package benchmark one BENCH_core.json row comes from.
type benchRow struct {
	key   string // the row's name in BENCH_core.json
	pkg   string // import path of the package whose _test.go files hold it
	bench string // Benchmark function, with "/sub" for a sub-benchmark
}

// benchRows are the report's rows, each ns, bytes and allocations per op
// plus the benchmark's own metrics: idle_pair_bytes reads B/pair and pairs,
// scale_1024 the events of one 1024-host window.
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
	{"scale_1024", "onepipe/internal/experiments", "BenchmarkFabricScale"},
}

// benchResult is one micro row in BENCH_core.json: ns/op with the number
// of runs and the fastest and slowest beside it, bytes and allocations per
// op, and the benchmark's b.ReportMetric values by unit.
type benchResult struct {
	NsPerOp     float64            `json:"ns_per_op"`
	Runs        int                `json:"runs,omitempty"`
	NsPerOpMin  float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64            `json:"ns_per_op_max,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the machine-readable performance contract: refreshed by
// `make bench-json`, gated by CI's bench-smoke job (engine events/sec must
// stay at or above the hand-pinned gate_floor).
type benchReport struct {
	Generated          string                 `json:"generated"`
	GoVersion          string                 `json:"go_version"`
	GOMAXPROCS         int                    `json:"gomaxprocs"`
	EngineEventsPerSec float64                `json:"engine_events_per_sec"`
	Benchmarks         map[string]benchResult `json:"benchmarks"`
	// GateFloor (what -bench-gate enforces) is set by hand, with a note of
	// why, and every -bench-json run copies it untouched from the committed
	// report, so re-capturing the file cannot move it.
	GateFloor json.RawMessage `json:"gate_floor,omitempty"`
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
// floor can never drop out of a refreshed report unnoticed.
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

// runBenchJSON refreshes the committed report at path. It runs the micro
// rows in -abba pairs against the commit that last wrote the file and
// overwrites a row's ns_per_op only when microVerdict calls it changed (or the
// row is new); otherwise the committed value stays and only the spread and
// the counts are this capture's. A slow or fast phase of the machine can
// therefore not ratchet the file. gate_floor is copied untouched.
func runBenchJSON(path string) error {
	committed, err := readCommitted(path)
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	capture, err := git("log", "-1", "--format=%H", "--", path)
	if err != nil || capture == "" {
		return fmt.Errorf("bench json: no commit has written %s: %v", path, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(abbaDir, 0o755); err != nil {
		return err
	}
	sides, cleanup, err := checkoutSides(capture, "")
	defer cleanup()
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	fmt.Printf("bench json: rows against %s, the last capture; %d pairs at GOMAXPROCS %d\n",
		sides[0].hash, abbaPairs, runtime.GOMAXPROCS(0))
	micro, err := runMicroPairs(ctx, sides)
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	printMicro(micro)
	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]benchResult, len(micro)),
		GateFloor:  committed.GateFloor,
	}
	for _, m := range micro {
		if m.absent[1] {
			return fmt.Errorf("bench json: row %s: %s declares no %s", m.row.key, m.row.pkg, m.row.bench)
		}
		old, had := committed.Benchmarks[m.row.key]
		rep.Benchmarks[m.row.key] = keepUnlessChanged(old, had && !m.absent[0], reduceRuns(m.runs[1]), m.verdict())
	}
	rep.EngineEventsPerSec = 1e9 / rep.Benchmarks["engine_schedule"].NsPerOp
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// keepUnlessChanged is the row -bench-json writes: fresh, this capture's
// median run with its spread, except that a row the pairs did not call
// changed keeps the committed ns_per_op. Bytes, allocations and reported
// metrics are counts, not timings, so they are always this capture's.
func keepUnlessChanged(committed benchResult, had bool, fresh benchResult, verdict string) benchResult {
	if had && verdict == "same" {
		fresh.NsPerOp = committed.NsPerOp
	}
	return fresh
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
	const gateRuns = 5
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
	if err := os.MkdirAll(abbaDir, 0o755); err != nil {
		return err
	}
	tree := &checkout{label: "gate", root: ".", bins: make(map[string]string)}
	runs, err := tree.runMicro(context.Background(), benchRows[0], gateRuns, runtime.GOMAXPROCS(0))
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	best, pinned := 1e9/reduceRuns(runs).NsPerOpMin, floor.EngineEventsPerSec
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
