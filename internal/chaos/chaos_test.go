package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"onepipe/internal/oracle"
)

var (
	seedCount = flag.Int("seeds", 8, "number of random seeds TestChaos sweeps")
	seedBase  = flag.Int64("seed-base", 1, "first seed of the sweep")
	replay    = flag.Int64("chaos.seed", -1, "seed for TestChaosReplay (from a failure report)")
	sweep     = flag.String("sweep", "", "seed ranges TestChaosSweep runs once each, e.g. 1-300,5000-5299")
)

// failSeed handles one failing seed: minimize the fault schedule, render the
// replayable report, persist it if CHAOS_ARTIFACT_DIR is set (the nightly CI
// job uploads that directory), and fail the test.
func failSeed(t *testing.T, p Plan, vios []oracle.Violation) {
	t.Helper()
	min, minVios, runs := Minimize(p)
	rep := Report(p, vios, min, minVios)
	t.Logf("minimizer spent %d verification runs", runs)
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", p.Seed))
			if err := os.WriteFile(path, []byte(rep), 0o644); err != nil {
				t.Logf("chaos: writing artifact %s: %v", path, err)
			} else {
				t.Logf("chaos: failure report saved to %s", path)
			}
		}
	}
	t.Fatalf("%s", rep)
}

// runSeed executes one seed twice — once for the invariant checkers, once to
// assert the run is deterministically replayable (byte-identical delivery
// logs AND failure-callback log; Go randomizes map iteration per run, so a
// single process catches unsorted-map drift) — and returns the first result.
func runSeed(t *testing.T, p Plan) *Result {
	t.Helper()
	r := Run(p)
	if r2 := Run(p); r.FullDigest() != r2.FullDigest() {
		t.Fatalf("seed %d is not deterministic: full digest %s != %s (replay would be unfaithful)",
			p.Seed, r.FullDigest()[:16], r2.FullDigest()[:16])
	}
	return r
}

// TestChaos is the harness entry point: it sweeps -seeds random seeds, each
// deriving a topology, workload and fault schedule, and validates every
// invariant in the catalog against the delivery logs. A failure prints a
// replayable seed plus the minimized fault schedule.
func TestChaos(t *testing.T) {
	if testing.Short() {
		*seedCount = 3
	}
	for s := *seedBase; s < *seedBase+int64(*seedCount); s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			t.Parallel()
			p := NewPlan(s)
			r := runSeed(t, p)
			if r.TotalDeliveries() == 0 {
				t.Fatalf("seed %d: no deliveries at all (plan: %s) — harness wired wrong", s, p.String())
			}
			if vios := oracle.Check(&r.Log); len(vios) > 0 {
				failSeed(t, p, vios)
			}
		})
	}
}

// TestChaosReplay re-executes a single seed from a failure report with full
// diagnostics: go test ./internal/chaos -run TestChaosReplay -chaos.seed=N -v
func TestChaosReplay(t *testing.T) {
	if *replay < 0 {
		t.Skip("no -chaos.seed given; use the seed from a TestChaos failure report")
	}
	p := NewPlan(*replay)
	t.Logf("plan: %s", p.String())
	for _, f := range p.Faults {
		t.Logf("fault: %s", f)
	}
	r := runSeed(t, p)
	t.Logf("deliveries=%d sends=%d forwarded=%d recalled=%d stuck=%d",
		r.TotalDeliveries(), len(r.Sends), r.ForwardedMsgs, r.Stats.Recalled, r.Stats.StuckReports)
	t.Logf("failed procs (fts): %v", r.Failed)
	if vios := oracle.Check(&r.Log); len(vios) > 0 {
		failSeed(t, p, vios)
	}
}

// sweepSeeds parses -sweep: comma-separated seeds or inclusive lo-hi ranges.
func sweepSeeds(t *testing.T, spec string) []int64 {
	t.Helper()
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil || b < a {
			t.Fatalf("bad -sweep range %q", part)
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// TestChaosSweep is the wide sweep: every seed in -sweep runs once, without
// the replay check or minimization, and each failing seed is reported on one
// line with its first violation and a count per invariant (make chaos-sweep;
// replay a seed with TestChaosReplay for the minimized report).
func TestChaosSweep(t *testing.T) {
	if *sweep == "" {
		t.Skip("no -sweep given; make chaos-sweep runs the wide seed window")
	}
	seeds := sweepSeeds(t, *sweep)
	first := make([]string, len(seeds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := Run(NewPlan(seeds[i]))
				if r.TotalDeliveries() == 0 {
					first[i] = "no deliveries at all"
				} else if vios := oracle.Check(&r.Log); len(vios) > 0 {
					first[i] = sweepLine(vios)
				}
			}
		}()
	}
	for i := range seeds {
		next <- i
	}
	close(next)
	wg.Wait()
	failed := 0
	for i, v := range first {
		if v != "" {
			failed++
			t.Errorf("seed %d: %s", seeds[i], v)
		}
	}
	t.Logf("%d of %d seeds failed", failed, len(seeds))
}

// sweepLine renders a failing seed for the wide sweep: its first violation,
// then how often each invariant fired, in order of first appearance, e.g.
// "[discard-floor×3 atomicity×1]". The counts are those of the report,
// which oracle.Check caps at oracle.MaxViolations.
func sweepLine(vios []oracle.Violation) string {
	var names []string
	count := map[string]int{}
	for _, v := range vios {
		if count[v.Invariant] == 0 {
			names = append(names, v.Invariant)
		}
		count[v.Invariant]++
	}
	tally := make([]string, len(names))
	for i, n := range names {
		tally[i] = fmt.Sprintf("%s×%d", n, count[n])
	}
	return fmt.Sprintf("%s [%s]", vios[0], strings.Join(tally, " "))
}

func TestSweepLine(t *testing.T) {
	vios := []oracle.Violation{
		{Invariant: "discard-floor", Detail: "first"},
		{Invariant: "atomicity", Detail: "second"},
		{Invariant: "discard-floor", Detail: "third"},
	}
	const want = "discard-floor: first [discard-floor×2 atomicity×1]"
	if got := sweepLine(vios); got != want {
		t.Fatalf("sweepLine = %q, want %q", got, want)
	}
}
