// Command benchmark is the repository's benchmark: four fixed-work workloads
// on the deterministic simulated fabric, driven from one goroutine.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it makes an
// untraced and a traced pass over a shorter window plus the layer probes and
// reports the per-layer metrics and the layer table. Every run checks the
// ordering contract. The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; the exit code is non-zero when a
// check failed. Without -workload every workload runs, untraced then traced.
//
//	benchmark -compare base.jsonl new.jsonl
//
// compares two record files written with -record (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"onepipe/internal/sim"
)

// tracedShare is the share of the -seconds window each of the two passes of
// a traced run covers, leaving the rest of the time to the probes.
const tracedShare = 0.4

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Samples   int                    `json:"latency_samples"`
	SegRates  []float64              `json:"segment_rates"` // units per wall second, fixed segments first
	Spread    float64                `json:"wall_spread_share"`
	Check     checkpoint             `json:"checkpoint"`
	Metrics   map[string]metricValue `json:"metrics"`
	Machine   machine                `json:"machine"`
}

// machine is the fingerprint a wall metric is only comparable within.
type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

func fingerprint() machine {
	m := machine{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func timedSetup(def *workloadDef, seed int64, setups *[]float64) *run {
	t0 := time.Now()
	r := setup(def, seed, nil)
	*setups = append(*setups, time.Since(t0).Seconds())
	return r
}

// fixedWindow is the fixed simulated window for -seconds, a whole number of
// nanoseconds per segment so every segment boundary is exact.
func fixedWindow(def *workloadDef, seconds float64) sim.Time {
	seg := sim.Time(float64(def.windowPerSec) * seconds / fixedSegments)
	if seg < sim.Microsecond {
		seg = sim.Microsecond
	}
	return seg * fixedSegments
}

// Set-up is repeated at least minSetups times, and up to maxSetups while
// the repeats together take less than setupBudget, so that a set-up of a
// tenth of a second is timed as steadily as one of three seconds.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// runUntraced measures the end-to-end metrics. Set-up runs several times —
// the median is setup_s — and the first of them carries on through the first
// segment, the in-process repeat the main run must reproduce exactly.
func runUntraced(def *workloadDef, seed int64, seconds float64) *record {
	window := fixedWindow(def, seconds)
	var setups []float64
	expect := timedSetup(def, seed, &setups).firstSegment(window)
	spent := setups[0]
	// The measured run's own set-up is the last sample, hence the −1s.
	for len(setups) < minSetups-1 || (len(setups) < maxSetups-1 && spent < setupBudget.Seconds()) {
		timedSetup(def, seed, &setups)
		spent += setups[len(setups)-1]
	}
	res := timedSetup(def, seed, &setups).measure(plan{window: window,
		budget: time.Duration(seconds * float64(time.Second)), expect: &expect})
	rec := newRecord(def, seed, seconds, 0, res)
	rec.Metrics = metricSet(endToEnd, endToEndValues(res, setups))
	printMetrics(os.Stdout, fmt.Sprintf("%s: end-to-end (seed %d, fixed window %v in %d segments + %d extra, %d latency samples)",
		def.name, seed, window, fixedSegments, len(res.segRate)-fixedSegments, len(res.lat)), endToEnd, rec.Metrics)
	fmt.Printf("  %-42s %16.6g %-12s (of %d attempted)\n", "failed", float64(res.failed), "count", res.attempted)
	fmt.Printf("  %-42s %16.6g %-12s (max−min over median of the segments)\n", "wall_spread_share", rec.Spread, "share")
	return rec
}

// runTraced measures the per-layer metrics: an untraced pass for the
// counters and the base cost, a traced pass of the same window for the
// spans, then the probes.
func runTraced(def *workloadDef, seed int64, seconds float64, outDir string) (*record, error) {
	window := fixedWindow(def, seconds*tracedShare)
	// A first segment before either pass warms the process (heap growth,
	// page faults) so the untraced pass is not the cold one, and is the
	// repeat both passes must reproduce.
	expect := setup(def, seed, nil).firstSegment(window)
	untraced := setup(def, seed, nil).measure(plan{window: window, expect: &expect})
	untraced.run.release() // the traced pass should not carry this fabric through its collections
	tr := newTracer()
	traced := setup(def, seed, tr).measure(plan{window: window, expect: &expect})
	ps, err := runProbes(def)
	if err != nil {
		return nil, err
	}
	vals := counterValues(untraced)
	ps.values(vals)
	rows := layerTable(untraced, traced, tr, &ps, vals)
	rec := newRecord(def, seed, seconds, 1, untraced)
	rec.Problems = append(rec.Problems, traced.problems...)
	rec.Failed += traced.failed
	rec.Attempted += traced.attempted
	if def.name == "bcast-be" {
		rec.Problems = append(rec.Problems, ps.core.matchesWorkload(untraced)...)
	}
	rec.Correct = len(rec.Problems) == 0
	rec.Metrics = metricSet(perLayer, vals)
	printMetrics(os.Stdout, fmt.Sprintf("%s: per-layer (seed %d, window %v untraced then traced)", def.name, seed, window),
		perLayer, rec.Metrics)
	printLayerTable(os.Stdout, def, rows, untraced.wallNsPerUnit())
	path, err := tr.write(outDir, def.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	return rec, nil
}

func newRecord(def *workloadDef, seed int64, seconds float64, trace int, res *result) *record {
	return &record{Workload: def.name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Problems: res.problems, Samples: len(res.lat), SegRates: res.segRate,
		Spread: wallSpread(res.segRate), Check: res.cp, Machine: fingerprint()}
}

// emit prints the contract's result line and appends the full record.
func emit(rec *record, recordPath string) error {
	for _, p := range rec.Problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if recordPath != "" {
		f, err := os.OpenFile(recordPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("open record file: %w", err)
		}
		line, _ := json.Marshal(rec) // plain data: cannot fail
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("append record: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close record file: %w", err)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "wall seconds the measured region should fill")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, layer table and span file")
	outDir := flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	recordPath := flag.String("record", "", "append each run's full record to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two record files: -compare base.jsonl new.jsonl")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.jsonl new.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	defs := workloads
	modes := []int{0, 1}
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		defs, modes = []workloadDef{*def}, []int{*trace}
	}
	m := fingerprint()
	fmt.Printf("machine: %d cpus, GOMAXPROCS %d, %s, %s\n", m.NProc, m.GoMaxProcs, m.GoVersion, m.CPU)
	ok := true
	for _, mode := range modes {
		for i := range defs {
			var rec *record
			if mode == 0 {
				rec = runUntraced(&defs[i], *seed, *seconds)
			} else {
				var err error
				if rec, err = runTraced(&defs[i], *seed, *seconds, *outDir); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
			}
			if err := emit(rec, *recordPath); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			ok = ok && rec.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}
