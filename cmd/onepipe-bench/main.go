// Command onepipe-bench regenerates the tables and figures of the 1Pipe
// paper's evaluation section on the simulated data center.
//
// Usage:
//
//	onepipe-bench -list
//	onepipe-bench -fig 8a [-full]
//	onepipe-bench -all [-full]
//	onepipe-bench -abba BASE[..CHANGE]
//	onepipe-bench -bench-json
//	onepipe-bench -bench-gate BENCH_core.json
//
// -full runs the paper's complete sweeps (up to 512 processes; minutes of
// wall time); the default quick scale preserves every figure's shape with
// smaller axes.
//
// -abba compares two revisions (CHANGE defaults to the working tree): every
// BENCHMARK.json workload and every BENCH_core.json row in ten alternating
// pairs, with the benchmark's own verdicts and the pair wins (abba.go). It
// exits nonzero on any worse or moved verdict or failed run.
//
// -bench-json refreshes BENCH_core.json from the packages' own Go benchmarks
// named in benchRows (engine scheduling, timers, wire codec, simulated send
// path, per-pair state, fabric scale), run in -abba pairs against the commit
// that last wrote it: a row's ns/op changes only when the pairs call it
// changed. -bench-gate compares a fresh engine measurement against the
// hand-pinned gate_floor of a committed report and exits nonzero below it.
// All three run from the repository root. -cpuprofile and -memprofile capture
// pprof profiles of whichever mode runs in this process (not of its
// children: profile those with `go test -bench … -memprofile`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"onepipe/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fig := flag.String("fig", "", "experiment id to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	full := flag.Bool("full", false, "paper-scale sweeps (slow)")
	abba := flag.String("abba", "", "compare revisions BASE[..CHANGE] (default CHANGE: the working tree) in alternating pairs")
	benchJSON := flag.Bool("bench-json", false, "refresh BENCH_core.json: rows change only when pairs against its last capture call them changed")
	benchGate := flag.String("bench-gate", "", "compare fresh engine events/sec against this committed report's hand-pinned gate_floor; fail below it")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-5s %s\n", r.ID, r.Title)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	sc := experiments.Quick()
	if *full {
		sc = experiments.Full()
	}
	run := func(r experiments.Runner) {
		start := time.Now()
		tbl := r.Run(sc)
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("scale=%s, wall time %.1fs", sc.Name, time.Since(start).Seconds()))
		tbl.Print(os.Stdout)
	}
	switch {
	case *abba != "":
		failed, err := runABBA(*abba)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if failed {
			return 1
		}
	case *benchGate != "":
		if err := runBenchGate(*benchGate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case *benchJSON:
		if err := runBenchJSON(committedReport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case *all:
		for _, r := range experiments.Registry() {
			run(r)
		}
	case *fig != "":
		r, ok := experiments.Find(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *fig)
			for _, r := range experiments.Registry() {
				fmt.Fprintf(os.Stderr, "  %-11s %s\n", r.ID, r.Title)
			}
			return 1
		}
		run(r)
	default:
		flag.Usage()
		return 2
	}
	return 0
}
