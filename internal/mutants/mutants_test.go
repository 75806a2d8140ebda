// Package mutants is the mutation catalogue: one-line bugs planted in a copy
// of the module, each paired with the contract check that must catch it.
// A check that no planted bug can fail checks nothing; the catalogue shows,
// row by row, which invariant of the delivery contract each check enforces.
//
// TestMutantAnchors runs in every `go test ./...` and only reads the tree:
// each row's search string occurs exactly once in its file and each named
// killer test exists, so a refactor that moves an anchor fails at once.
// TestMutants does the work and runs only when asked (make mutants):
//
//	go test ./internal/mutants -run TestMutants -mutants -v -timeout 20m
//	go test ./internal/mutants -run 'TestMutants/pipeline' -mutants -v
//
// It copies the module into a temporary directory, runs every distinct
// killer command once on the clean copy (each must pass), then for each row
// makes its one replacement, checks that the tree still builds, runs the
// row's killer command and restores the file. A row expects either a kill —
// the command fails, a failing test is not a golden/digest pin, and the
// output names the row's invariant or test — or a survival, which is a
// finding that the row names. The test fails when reality differs from the
// row in either direction.
package mutants

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var run = flag.Bool("mutants", false, "run the mutation catalogue (slow: builds and tests every mutant)")

// mutant is one row of the catalogue.
type mutant struct {
	name string
	// file is relative to the module root; from occurs in it exactly once
	// and is replaced by to.
	file, from, to string
	// The killer command is
	//	go test <pkg> -run '^(<tests>)$' -count=1 <args...>
	// tests is a "|"-separated list of test function names in pkg.
	pkg, tests string
	args       []string
	// want is what a kill must print: an oracle invariant or a test name.
	// A row with no want is an expected survivor and names the ROADMAP item
	// its finding belongs to.
	want    string
	finding string
}

// chaos50 is make chaos's sweep: TestChaos over seeds 1-50.
var chaos50 = []string{"-seeds", "50"}

// catalogue is the mutation catalogue. Keep each replacement to one line,
// and keep docs/testing.md's kill table in step with it.
var catalogue = []mutant{
	{
		// DESIGN deviation #8: loopback-entered packets skip the logical
		// switch's pipeline, so a fresh turnaround stamp overtakes an older
		// packet onto the same egress.
		name: "pipeline",
		file: "internal/netsim/network.go",
		from: "n.Eng.After2(switchFwdDelay, n.transmitFn, out, pkt)",
		to:   "if l.kind == topology.LinkLoopback { n.Eng.After2(0, n.transmitFn, out, pkt) } else { n.Eng.After2(switchFwdDelay, n.transmitFn, out, pkt) }",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "wire-barrier",
	},
	{
		name: "pending-src-tiebreak",
		file: "internal/core/recv.go",
		from: "return a.src < b.src",
		to:   "return a.src > b.src",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "local-order",
	},
	{
		name: "commit-floor",
		file: "internal/core/endpoint.go",
		from: "return h.outstanding[0].ts - 1",
		to:   "return h.outstanding[0].ts",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "atomicity",
	},
	{
		// A message exactly at fts is rare enough that TestChaos misses
		// this on seeds 1-300 and 5000-5299: the directed test pins it.
		name: "discard-at-fts",
		file: "internal/core/fail.go",
		from: "dead && p.ts > fts {",
		to:   "dead && p.ts >= fts {",
		pkg:  "./internal/core", tests: "TestDiscardKeepsFailureTimestamp",
		want: "TestDiscardKeepsFailureTimestamp",
	},
	{
		// The rescan leaves input 0 out of each plane's minimum.
		name: "barrier-drop-input",
		file: "internal/barrier/barrier.go",
		from: "for i := range s.in {",
		to:   "for i := 1; i < len(s.in); i++ {",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "wire-barrier",
	},
	{
		name: "be-release-at-barrier",
		file: "internal/core/recv.go",
		from: "h.beQ.top().ts < h.barrierBE {",
		to:   "h.beQ.top().ts <= h.barrierBE {",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "barrier-gate",
	},
	{
		// Late, never wrong: the oracle checks that nothing is delivered
		// above a barrier, not that everything covered is delivered, so
		// TestChaos passes; the directed test pins the release point.
		name: "rel-release-strict",
		file: "internal/core/recv.go",
		from: "h.relQ.top().ts <= h.barrierC {",
		to:   "h.relQ.top().ts < h.barrierC {",
		pkg:  "./internal/core", tests: "TestReliableReleasedAtCommitBarrier",
		want: "TestReliableReleasedAtCommitBarrier",
	},
	{
		// Every coalesced ACK also covers the PSN after each it names.
		name: "ack-one-too-many",
		file: "internal/core/recv.go",
		from: "c.onAck(pkt.Reliable, psn, batch.ECN[i])",
		to:   "c.onAck(pkt.Reliable, psn, batch.ECN[i]); c.onAck(pkt.Reliable, psn+1, batch.ECN[i])",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "atomicity",
	},
	{
		// An aborted reliable scattering is recalled from every correct
		// destination but its first.
		name: "partial-recall",
		file: "internal/core/fail.go",
		from: "if dst == noRecall {",
		to:   "if dst == noRecall || i == 0 {",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		want: "atomicity",
	},
	{
		// The one-rack star forwards data stamped with the sender's own
		// barriers, not the switch's aggregate.
		name: "star-own-barrier",
		file: "internal/starswitch/starswitch.go",
		from: "pkt.BarrierBE, pkt.BarrierC = be, cc",
		to:   "be, cc = pkt.BarrierBE, pkt.BarrierC",
		pkg:  "./internal/udpnet", tests: "TestStar",
		want: "atomicity",
	},
	{
		// Each discipline forgets the last read, so a sync that lowers the
		// offset steps the clock back. The clock's own
		// TestClockMonotonicAcrossResync fails; no delivery-level check
		// does, and no chaos plan runs past its 10 ms sync interval.
		name: "clock-step-back",
		file: "internal/clock/clock.go",
		from: "c.syncedAt = c.eng.Now()",
		to:   "c.syncedAt, c.lastRead = c.eng.Now(), 0",
		pkg:  "./internal/chaos", tests: "TestChaos", args: chaos50,
		finding: "ROADMAP item 8",
	},
	{
		// A read-only part is answered at once, ahead of the writes queued
		// in the owner's station before it.
		name: "serve-read-on-arrival",
		file: "internal/serve/serve.go",
		from: "t.eng.At2(sh.cpuBusy, servedEv, t, m)",
		to:   "if m.Ops[0].Kind == workload.OpRead { servedEv(t, m) } else { t.eng.At2(sh.cpuBusy, servedEv, t, m) }",
		pkg:  "./internal/serve", tests: "TestKVClosedLoop|TestReplayDeterminism|TestKVMatchesLegacyKVStore|TestFrontendCrashUnderLoad",
		finding: "ROADMAP item 4",
	},
}

// pins are the tests that only compare a run with a recorded digest or
// table. Nearly any timing change moves them, so their failure alone is no
// kill, and none is a killer. (TestStar pins a digest too, but it also
// checks the oracle: it kills when its output names the invariant.)
var pins = regexp.MustCompile(`^(TestGolden.*|TestResultsQuick|TestParentPins|TestPairStatePins)$`)

// command returns the row's killer command line after "go".
func (m *mutant) command() []string {
	return append([]string{"test", m.pkg, "-run", "^(" + m.tests + ")$", "-count=1", "-timeout", "5m"}, m.args...)
}

func (m *mutant) commandString() string {
	return "go " + strings.Join(m.command(), " ")
}

// moduleRoot is the module's root, two levels above this package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMutantAnchors checks every row against the tree as it stands: one
// occurrence of the search string, a real change, an existing killer test,
// and exactly one of want and finding.
func TestMutantAnchors(t *testing.T) {
	root := moduleRoot(t)
	seen := map[string]bool{}
	for _, m := range catalogue {
		if seen[m.name] {
			t.Errorf("%s: duplicate row name", m.name)
		}
		seen[m.name] = true
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if n := bytes.Count(src, []byte(m.from)); n != 1 {
			t.Errorf("%s: %q occurs %d times in %s, want exactly once", m.name, m.from, n, m.file)
		}
		if m.from == m.to || strings.Contains(m.to, "\n") {
			t.Errorf("%s: the replacement must be one changed line", m.name)
		}
		if (m.want == "") == (m.finding == "") {
			t.Errorf("%s: name exactly one of an expected kill (want) and a finding", m.name)
		}
		tests, err := filepath.Glob(filepath.Join(root, m.pkg, "*_test.go"))
		if err != nil || len(tests) == 0 {
			t.Errorf("%s: no test files in %s", m.name, m.pkg)
			continue
		}
		var all []byte
		for _, f := range tests {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		for _, name := range strings.Split(m.tests, "|") {
			if pins.MatchString(name) {
				t.Errorf("%s: killer test %s is a pin", m.name, name)
			}
			if !bytes.Contains(all, []byte("\nfunc "+name+"(t *testing.T) {")) {
				t.Errorf("%s: killer test %s not found in %s", m.name, name, m.pkg)
			}
		}
	}
	if len(catalogue) < 10 {
		t.Errorf("catalogue has %d rows, want at least 10", len(catalogue))
	}
}

// TestVerdict: a pin failing alone is a survival, a kill needs a failing
// test outside the pins and the row's name in the output.
func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		out              string
		ok               bool
		killed, survived bool
	}{
		{"ok  \tonepipe/internal/chaos\t5.1s\n", true, false, true},
		{"--- FAIL: TestGoldenSeedDigests (0.1s)\n--- FAIL: TestParentPins/kv (0.0s)\nFAIL\n", false, false, true},
		{"--- FAIL: TestChaos (6.0s)\n    --- FAIL: TestChaos/seed=14 (0.2s)\n        wire-barrier: ...\nFAIL\n", false, true, false},
		{"--- FAIL: TestChaos (6.0s)\n        atomicity: ...\nFAIL\n", false, false, false},
		{"panic: runtime error\n        wire-barrier\nFAIL\tonepipe/internal/chaos\n", false, true, false},
	} {
		if k, s := verdict(c.out, c.ok, "wire-barrier"); k != c.killed || s != c.survived {
			t.Errorf("verdict(%q) = killed %v, survived %v; want %v, %v", c.out, k, s, c.killed, c.survived)
		}
	}
}

// copyModule copies the module at root into dst, leaving out version
// control, the benchmark module and its build directory, and test binaries.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", ".bench_build", "benchmark":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() || strings.HasSuffix(rel, ".test") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}

// goRun runs go with args in dir and returns its combined output and
// whether it succeeded. go test puts its own toolchain first on PATH.
func goRun(dir string, args ...string) (string, bool) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err == nil
}

var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// verdict classifies a killer run: killed when it failed, a failing test is
// not a pin, and the output names want; survived when it passed or only
// pins failed; otherwise it failed for some other reason.
func verdict(out string, ok bool, want string) (killed, survived bool) {
	if ok {
		return false, true
	}
	onlyPins := true
	fails := failLine.FindAllStringSubmatch(out, -1)
	for _, f := range fails {
		if !pins.MatchString(strings.SplitN(f[1], "/", 2)[0]) {
			onlyPins = false
		}
	}
	if len(fails) > 0 && onlyPins {
		return false, true
	}
	return want != "" && strings.Contains(out, want), false
}

// tail returns the last n lines of s, for a failure message.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// TestMutants runs the catalogue (see the package comment). Each row is a
// subtest, so -run 'TestMutants/<name>' runs one row after the clean pass.
func TestMutants(t *testing.T) {
	if !*run {
		t.Skip("the mutation catalogue runs with -mutants (make mutants)")
	}
	root := moduleRoot(t)
	dir := t.TempDir()
	copyModule(t, root, dir)
	if out, ok := goRun(dir, "build", "./..."); !ok {
		t.Fatalf("the unmutated copy does not build:\n%s", tail(out, 20))
	}

	// Every killer command must pass on the unmutated tree, or a kill
	// would prove nothing.
	clean := map[string]bool{}
	for _, m := range catalogue {
		c := m.commandString()
		if clean[c] {
			continue
		}
		clean[c] = true
		start := time.Now()
		out, ok := goRun(dir, m.command()...)
		t.Logf("clean: %s (%.1f s)", c, time.Since(start).Seconds())
		if !ok {
			t.Fatalf("killer command fails on the unmutated tree: %s\n%s", c, tail(out, 30))
		}
	}

	var table strings.Builder
	table.WriteString("| mutant | file | killing command | invariant / test | s |\n|---|---|---|---|---|\n")
	for _, m := range catalogue {
		t.Run(m.name, func(t *testing.T) {
			outcome := "survives (" + m.finding + ")"
			if m.want != "" {
				outcome = m.want
			}
			secs := runMutant(t, dir, m)
			fmt.Fprintf(&table, "| `%s` | `%s` | `%s` | %s | %.0f |\n", m.name, m.file,
				strings.ReplaceAll(m.commandString(), "|", `\|`), outcome, secs)
		})
	}
	t.Logf("kill table:\n%s", table.String())
}

// runMutant plants m in the copy at dir, runs its killer, restores the file
// and fails t unless the outcome is the row's. It returns the killer's
// run time in seconds.
func runMutant(t *testing.T, dir string, m mutant) float64 {
	path := filepath.Join(dir, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(orig, []byte(m.from)); n != 1 {
		t.Fatalf("%q occurs %d times in %s", m.from, n, m.file)
	}
	if err := os.WriteFile(path, bytes.Replace(orig, []byte(m.from), []byte(m.to), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	if out, ok := goRun(dir, "build", "./..."); !ok {
		t.Fatalf("the mutated tree does not build:\n%s", tail(out, 10))
	}
	start := time.Now()
	out, ok := goRun(dir, m.command()...)
	secs := time.Since(start).Seconds()
	killed, survived := verdict(out, ok, m.want)
	switch {
	case m.want != "" && survived:
		t.Errorf("survived %s, want a kill naming %q", m.commandString(), m.want)
	case m.want != "" && !killed:
		t.Errorf("%s failed without naming %q:\n%s", m.commandString(), m.want, tail(out, 30))
	case m.want == "" && !survived:
		t.Errorf("expected to survive (%s) but %s failed; make it a kill:\n%s", m.finding, m.commandString(), tail(out, 30))
	case m.want != "":
		t.Logf("killed: %s names %s (%.1f s)", m.commandString(), m.want, secs)
	default:
		t.Logf("survives as recorded (%s) (%.1f s)", m.finding, secs)
	}
	return secs
}
