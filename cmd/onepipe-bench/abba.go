package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// -abba BASE[..CHANGE] measures two revisions against each other the way a
// performance claim is shown here: abbaPairs alternating pairs of runs, one
// at a time, the first side flipping every pair, with the same seed and run
// length on both sides. CHANGE defaults to the working tree.
// Every BENCHMARK.json workload runs through each side's own, unchanged
// benchmark/run.sh build, and the benchmark's frozen -compare gives the
// end-to-end verdicts; the micro rows (benchRows) run through each side's
// package test binaries and get their verdict from microVerdict.
const (
	abbaPairs = 10 // the fewest pairs a claim rests on; microVerdict's 9/10 rule is stated for them
	abbaSeed  = 1  // one seed on both sides: every sim_* value then repeats exactly
	abbaDir   = ".bench_build/abba"
)

// benchSpec is what -abba reads from BENCHMARK.json.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// checkout is one side of a campaign.
type checkout struct {
	label string            // "base" or "change"
	rev   string            // the revision as given, or "" for the working tree
	hash  string            // its commit, or "working tree"
	root  string            // the directory it is checked out in
	bins  map[string]string // test binary per package, "" where the package is absent
}

// pairOrder gives the sides of pair p in the order they run: the base side
// first in even pairs, the change side first in odd ones.
func pairOrder(p int) [2]int {
	if p%2 == 0 {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}

// countWins counts the pairs each side wins; a tie is neither side's win.
func countWins(base, change []float64, higherBetter bool) (changeWins, baseWins int) {
	for i := range base {
		d := change[i] - base[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			changeWins++
		case d < 0:
			baseWins++
		}
	}
	return changeWins, baseWins
}

// microVerdict is the claim rule applied to ns/op pairs: a side is called
// faster only when it wins at least nine tenths of the pairs and the medians
// differ by more than the base side's interquartile range.
func microVerdict(base, change []float64) string {
	cw, bw := countWins(base, change, false)
	q1, q3 := quartiles(base)
	gap := median(base) - median(change)
	switch {
	case 10*cw >= 9*len(base) && gap > q3-q1:
		return "better"
	case 10*bw >= 9*len(base) && -gap > q3-q1:
		return "worse"
	}
	return "same"
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of two or more values by the exclusive
// method, as the benchmark's -compare computes them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// git runs a git command in the current directory and returns its trimmed
// standard output.
func git(args ...string) (string, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return strings.TrimSpace(out.String()), nil
}

// checkoutSides checks out each side that names a revision as a detached
// worktree under abbaDir. The returned cleanup removes them again; it is
// also returned, and must be called, when an error is.
func checkoutSides(baseRev, changeRev string) ([2]*checkout, func(), error) {
	sides := [2]*checkout{{label: "base", rev: baseRev}, {label: "change", rev: changeRev}}
	var added []string
	cleanup := func() {
		for _, dir := range added {
			removeWorktree(dir)
		}
	}
	for _, s := range sides {
		s.bins = make(map[string]string)
		if s.rev == "" {
			s.hash, s.root = "working tree", "."
			continue
		}
		hash, err := git("rev-parse", "--verify", s.rev+"^{commit}")
		if err != nil {
			return sides, cleanup, err
		}
		s.hash, s.root = hash[:12], filepath.Join(abbaDir, s.label)
		removeWorktree(s.root) // one left by a campaign that was killed outright
		if _, err := git("worktree", "add", "--detach", s.root, hash); err != nil {
			return sides, cleanup, err
		}
		added = append(added, s.root)
	}
	return sides, cleanup, nil
}

// removeWorktree removes the worktree at dir, and the directory even when
// git no longer knows it. It reports nothing: what it cannot remove, the
// next campaign's checkout removes again before it adds its own.
func removeWorktree(dir string) {
	if _, err := git("worktree", "remove", "--force", dir); err != nil {
		os.RemoveAll(dir)
	}
	_, _ = git("worktree", "prune")
}

// testBinary returns the test binary of pkg at side s, building it on first
// use; "" means the package does not exist there.
func (s *checkout) testBinary(ctx context.Context, pkg string) (string, error) {
	if bin, ok := s.bins[pkg]; ok {
		return bin, nil
	}
	rel := "./" + strings.TrimPrefix(pkg, "onepipe/")
	bin := ""
	if _, err := os.Stat(filepath.Join(s.root, rel)); err == nil {
		abs, err := filepath.Abs(filepath.Join(abbaDir, s.label+"-"+filepath.Base(rel)+".test"))
		if err != nil {
			return "", err
		}
		os.Remove(abs)
		cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", abs, rel)
		cmd.Dir = s.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("%s: go test -c %s: %v\n%s", s.label, rel, err, out)
		}
		if _, err := os.Stat(abs); err == nil { // no test files: nothing is written
			bin = abs
		}
	}
	s.bins[pkg] = bin
	return bin, nil
}

// declares reports whether side s has row's benchmark function.
func (s *checkout) declares(ctx context.Context, row benchRow) (bool, error) {
	bin, err := s.testBinary(ctx, row.pkg)
	if bin == "" || err != nil {
		return false, err
	}
	fn, _, _ := strings.Cut(row.bench, "/")
	cmd := exec.CommandContext(ctx, bin, "-test.list", "^"+fn+"$")
	cmd.Dir = filepath.Join(s.root, strings.TrimPrefix(row.pkg, "onepipe/"))
	out, err := cmd.Output()
	if err != nil {
		return false, fmt.Errorf("%s: %s -test.list: %v", s.label, row.pkg, err)
	}
	return strings.TrimSpace(string(out)) == fn, nil
}

// runMicro runs row's benchmark count times in side s's test binary, in its
// package directory as go test would, at procs GOMAXPROCS.
func (s *checkout) runMicro(ctx context.Context, row benchRow, count, procs int) ([]benchResult, error) {
	bin, err := s.testBinary(ctx, row.pkg)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(row.bench, "/")
	for i, p := range parts {
		parts[i] = "^" + p + "$"
	}
	cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", strings.Join(parts, "/"),
		"-test.benchmem", "-test.count", strconv.Itoa(count), "-test.cpu", strconv.Itoa(procs), "-test.timeout", "10m")
	cmd.Dir = filepath.Join(s.root, strings.TrimPrefix(row.pkg, "onepipe/"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %s %s: %v\n%s", row.key, row.pkg, row.bench, err, out.String())
	}
	runs := parseBench(out.String(), procs)[row.bench]
	if len(runs) != count {
		return nil, fmt.Errorf("%s: %d result lines for %s, want %d, in:\n%s", row.key, len(runs), row.bench, count, out.String())
	}
	return runs, nil
}

// microPairs is one micro row's campaign: each side's runs in pair order,
// or absent when the side does not declare the row's benchmark.
type microPairs struct {
	row    benchRow
	absent [2]bool
	runs   [2][]benchResult
}

func (m *microPairs) ns(side int) []float64 {
	v := make([]float64, len(m.runs[side]))
	for i, r := range m.runs[side] {
		v[i] = r.NsPerOp
	}
	return v
}

func (m *microPairs) verdict() string {
	switch {
	case m.absent[0]:
		return "absent-base"
	case m.absent[1]:
		return "absent-new"
	}
	return microVerdict(m.ns(0), m.ns(1))
}

// runMicroPairs runs every benchRows row in abbaPairs alternating pairs; a
// row one side does not declare runs on the other side alone.
func runMicroPairs(ctx context.Context, sides [2]*checkout) ([]*microPairs, error) {
	procs := runtime.GOMAXPROCS(0)
	rows := make([]*microPairs, len(benchRows))
	for i, row := range benchRows {
		rows[i] = &microPairs{row: row}
		for k, s := range sides {
			ok, err := s.declares(ctx, row)
			if err != nil {
				return nil, err
			}
			rows[i].absent[k] = !ok
		}
	}
	for p := 0; p < abbaPairs; p++ {
		for _, m := range rows {
			for _, k := range pairOrder(p) {
				if m.absent[k] {
					continue // the other side's runs still give a new row its value
				}
				r, err := sides[k].runMicro(ctx, m.row, 1, procs)
				if err != nil {
					return nil, err
				}
				m.runs[k] = append(m.runs[k], r[0])
			}
		}
		fmt.Fprintf(os.Stderr, "abba: micro pair %d/%d done\n", p+1, abbaPairs)
	}
	return rows, nil
}

// printMicro prints the micro rows in the frozen -compare's columns, then
// the pair wins as new:base and the base side's IQR as a share of its median.
func printMicro(rows []*microPairs) {
	fmt.Printf("%-18s %-42s %16s %16s %9s  %-11s %s\n", "micro", "row (ns/op)", "base", "new", "new/base", "verdict", "wins new:base (base IQR)")
	for _, m := range rows {
		if v := m.verdict(); strings.HasPrefix(v, "absent") {
			fmt.Printf("%-18s %-42s %16s %16s %9s  %s\n", "micro", m.row.key, "-", "-", "-", v)
			continue
		}
		b, c := m.ns(0), m.ns(1)
		cw, bw := countWins(b, c, false)
		q1, q3 := quartiles(b)
		fmt.Printf("%-18s %-42s %16.6g %16.6g %9.4f  %-11s %d:%d (%.1f%%)\n", "micro", m.row.key,
			median(b), median(c), ratio(median(c), median(b)), m.verdict(), cw, bw, 100*ratio(q3-q1, median(b)))
	}
}

// cpuMetric is the user+sys CPU ns of a workload run's process per
// attempted message, kept beside the run's end-to-end metrics.
const cpuMetric = "cpu_ns_per_attempted_msg"

// runWorkload runs the benchmark binary of side s once, exactly as run.sh
// would after building it, appending the record to records, and returns
// the run's end-to-end metrics and cpuMetric.
func (s *checkout) runWorkload(ctx context.Context, workload string, seconds float64, records string) (map[string]float64, error) {
	root, err := filepath.Abs(s.root)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(root, ".bench_build", "onepipe-benchmark"),
		"-out", filepath.Join(root, "benchmark", "out"), "-workload", workload,
		"-seed", strconv.Itoa(abbaSeed), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0", "-record", records)
	cmd.Dir = s.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool   `json:"correct"`
		Attempted uint64 `json:"attempted"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil || !res.Correct || res.Attempted == 0 {
		return nil, fmt.Errorf("%s %s failed (%v):\n%s", s.label, workload, errors.Join(runErr, err), out.String())
	}
	run := make(map[string]float64, len(res.Metrics)+1)
	for name, m := range res.Metrics {
		run[name] = m.Value
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	run[cpuMetric] = float64(cpu.Nanoseconds()) / float64(res.Attempted)
	return run, nil
}

// buildBenchmark builds side s's benchmark through its own run.sh. run.sh
// builds and then executes the binary with the arguments it was given; a
// -compare of two empty record files is the cheapest thing it can execute.
func (s *checkout) buildBenchmark(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "-compare", os.DevNull, os.DevNull)
	cmd.Dir = s.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s: benchmark/run.sh: %v\n%s", s.label, err, out)
	}
	return nil
}

// runABBA runs the campaign for arg (BASE[..CHANGE]) and reports whether any
// verdict was worse or moved or any run failed.
func runABBA(arg string) (failed bool, err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("abba runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(abbaDir, 0o755); err != nil {
		return false, err
	}
	baseRev, changeRev, _ := strings.Cut(arg, "..")
	sides, cleanup, err := checkoutSides(baseRev, changeRev)
	defer cleanup()
	if err != nil {
		return false, err
	}
	fmt.Printf("abba: base %s (%s), new %s (%s); %d pairs, seed %d, %gs per run, GOMAXPROCS %d on %d cpus\n",
		baseRev, sides[0].hash, changeRev, sides[1].hash, abbaPairs, abbaSeed, spec.RunSeconds,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	var records [2]string
	for k, s := range sides {
		if err := s.buildBenchmark(ctx); err != nil {
			return false, err
		}
		if records[k], err = filepath.Abs(filepath.Join(abbaDir, s.label+".jsonl")); err != nil {
			return false, err
		}
		os.Remove(records[k])
	}

	runs := make(map[string]*[2][]map[string]float64)
	failures := 0
	for p := 0; p < abbaPairs; p++ {
		for _, w := range spec.Workloads {
			if runs[w.Name] == nil {
				runs[w.Name] = new([2][]map[string]float64)
			}
			for _, k := range pairOrder(p) {
				start := time.Now()
				r, err := sides[k].runWorkload(ctx, w.Name, spec.RunSeconds, records[k])
				if ctx.Err() != nil {
					return true, ctx.Err()
				}
				if err != nil {
					fmt.Println(err)
					failures++
					continue
				}
				runs[w.Name][k] = append(runs[w.Name][k], r)
				fmt.Fprintf(os.Stderr, "abba: pair %2d/%d %-16s %-6s %5.1fs wall, %.0f cpu ns/msg\n",
					p+1, abbaPairs, w.Name, sides[k].label, time.Since(start).Seconds(), r[cpuMetric])
			}
		}
	}

	// The frozen -compare of the change side's benchmark build.
	root, _ := filepath.Abs(sides[1].root)
	cmd := exec.CommandContext(ctx, filepath.Join(root, ".bench_build", "onepipe-benchmark"), "-compare", records[0], records[1])
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return true, fmt.Errorf("benchmark -compare: %v\n%s", err, out)
	}
	higher := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		higher[m.Name] = m.Better == "higher"
	}
	verdicts := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) != 6 {
			fmt.Println(line)
			continue
		}
		// The verdict is the last column; the wins go beside it.
		pad := len(line) - len(f[5]) + 11
		if f[0] == "workload" {
			fmt.Printf("%-*s %s\n", pad, line, "wins new:base")
			continue
		}
		rs := runs[f[0]]
		if _, ok := higher[f[1]]; !ok || rs == nil || len(rs[0]) != len(rs[1]) {
			fmt.Println(line)
			continue
		}
		verdicts[f[5]]++
		cw, bw := countWins(metricOf(rs[0], f[1]), metricOf(rs[1], f[1]), higher[f[1]])
		fmt.Printf("%-*s %d:%d\n", pad, line, cw, bw)
	}
	for _, w := range spec.Workloads {
		rs := runs[w.Name]
		b, c := metricOf(rs[0], cpuMetric), metricOf(rs[1], cpuMetric)
		if len(b) != len(c) {
			continue
		}
		cw, bw := countWins(b, c, false)
		fmt.Printf("%-18s %-42s %16.6g %16.6g %9.4f  %-11s %d:%d\n", w.Name, cpuMetric,
			median(b), median(c), ratio(median(c), median(b)), "-", cw, bw)
	}
	for _, w := range spec.Workloads {
		for k, s := range sides {
			fmt.Printf("cpu ns/msg %-16s %-6s %s\n", w.Name, s.label, joinFloats(metricOf(runs[w.Name][k], cpuMetric)))
		}
	}

	micro, err := runMicroPairs(ctx, sides)
	if err != nil {
		return true, err
	}
	printMicro(micro)
	for _, m := range micro {
		verdicts[m.verdict()]++
	}
	fmt.Printf("abba: %d better, %d worse, %d moved, %d unresolved, %d failed runs; records in %s\n",
		verdicts["better"], verdicts["worse"], verdicts["moved"], verdicts["unresolved"], failures, abbaDir)
	return verdicts["worse"]+verdicts["moved"]+failures > 0, nil
}

func metricOf(runs []map[string]float64, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r[name]
	}
	return v
}

func joinFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(s, " ")
}
