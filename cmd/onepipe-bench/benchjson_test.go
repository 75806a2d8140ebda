package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A go test -bench transcript at -cpu 4: the testing package appends -4 to
// every name, custom metrics sit between ns/op and B/op, and a sub-benchmark
// whose name has a dash must not be folded into its sibling.
const benchTranscript = `goos: linux
goarch: amd64
pkg: onepipe/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkEngineSchedule-4         	29000000	        41.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineSchedule-4         	29000000	        39.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineSchedule-4         	29000000	        53.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineSchedule-4         	29000000	        36.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineSchedule-4         	29000000	        40.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkTimerArmCancel/cancel-4  	31000000	        36.9 ns/op	       8 B/op	       1 allocs/op
BenchmarkTimerArmCancel/cancel-near-4 	31000000	        30.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkIdlePair-4               	      84	  14552967 ns/op	       105.6 B/pair	      4096 pairs	 1511520 B/op	   13003 allocs/op
--- some log line
PASS
ok  	onepipe/internal/sim	12.3s
`

func TestParseBench(t *testing.T) {
	runs := parseBench(benchTranscript, 4)
	if len(runs) != 4 {
		t.Fatalf("parsed %d names, want 4: %v", len(runs), runs)
	}
	r := reduceRuns(runs["BenchmarkEngineSchedule"])
	if r.Runs != 5 || r.NsPerOp != 40.6 || r.NsPerOpMin != 36.6 || r.NsPerOpMax != 53.9 {
		t.Errorf("five repeats reduced to %+v, want median 40.6 of 5 in 36.6–53.9", r)
	}
	if c := runs["BenchmarkTimerArmCancel/cancel"]; len(c) != 1 || c[0].NsPerOp != 36.9 || c[0].BytesPerOp != 8 || c[0].AllocsPerOp != 1 {
		t.Errorf("/cancel parsed as %+v", c)
	}
	if c := runs["BenchmarkTimerArmCancel/cancel-near"]; len(c) != 1 || c[0].NsPerOp != 30.1 {
		t.Errorf("/cancel-near parsed as %+v", c)
	}
	idle := runs["BenchmarkIdlePair"]
	if len(idle) != 1 || idle[0].Metrics["B/pair"] != 105.6 || idle[0].Metrics["pairs"] != 4096 || idle[0].AllocsPerOp != 13003 {
		t.Errorf("metric columns parsed as %+v", idle)
	}
	// At -cpu 1 the testing package adds no suffix, and a name's own
	// trailing digits stay.
	one := parseBench("BenchmarkEngineSchedule2 \t 100 \t 7.5 ns/op \t 0 B/op \t 0 allocs/op\n", 1)
	if r := one["BenchmarkEngineSchedule2"]; len(r) != 1 || r[0].NsPerOp != 7.5 {
		t.Errorf("unsuffixed line parsed as %v", one)
	}
}

// TestBenchRowsDeclared checks that every row names a Benchmark function
// declared in its package's _test.go files (and, for a sub-benchmark, a
// string literal with the sub-benchmark's name in it), and that the rows
// are exactly the committed report's, so a renamed benchmark fails here and
// not at the next refresh.
func TestBenchRowsDeclared(t *testing.T) {
	committed, err := readCommitted(filepath.Join("..", "..", committedReport))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for k := range committed.Benchmarks {
		keys[k] = true
	}
	for _, row := range benchRows {
		if !keys[row.key] {
			t.Errorf("row %s is not in %s", row.key, committedReport)
		}
		delete(keys, row.key)
		fn, sub, _ := strings.Cut(row.bench, "/")
		if !declared(t, filepath.Join("..", "..", strings.TrimPrefix(row.pkg, "onepipe/")), fn, sub) {
			t.Errorf("row %s: %s declares no %s", row.key, row.pkg, row.bench)
		}
	}
	for k := range keys {
		t.Errorf("%s row %s has no benchRows entry", committedReport, k)
	}
}

// declared reports whether a _test.go file in dir declares func fn, with
// the string literal sub in its body unless sub is empty.
func declared(t *testing.T, dir, fn, sub string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != fn {
				continue
			}
			found := sub == ""
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					found = found || s == sub
				}
				return !found
			})
			return found
		}
	}
	return false
}

// TestReadCommitted: gate_floor comes from the committed report, and a
// committed report that is missing, does not parse or has no gate_floor
// stops -bench-json before it measures or writes anything.
func TestReadCommitted(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"benchmarks": {}, "gate_floor": {"note": "g", "engine_events_per_sec": 10452000}}`)
	rep, err := readCommitted(good)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.GateFloor) != `{"note": "g", "engine_events_per_sec": 10452000}` {
		t.Errorf("gate_floor read as %s", rep.GateFloor)
	}
	for _, bad := range []string{
		filepath.Join(dir, "missing.json"),
		write("truncated.json", `{"benchmarks": {}, "gate_floor": {"engine_events_per_sec": 1`),
		write("nofloor.json", `{"benchmarks": {}}`),
		write("nullfloor.json", `{"benchmarks": {}, "gate_floor": null}`),
	} {
		before, _ := os.ReadFile(bad)
		if _, err := readCommitted(bad); err == nil {
			t.Errorf("%s: no error", filepath.Base(bad))
		}
		if err := runBenchJSON(bad); err == nil {
			t.Errorf("-bench-json with %s: no error", filepath.Base(bad))
		}
		if after, _ := os.ReadFile(bad); !bytes.Equal(before, after) {
			t.Errorf("-bench-json with %s wrote a report", filepath.Base(bad))
		}
	}
}

// TestCommittedReportRoundTrips: the report type knows every key of the
// committed BENCH_core.json, so re-encoding it reproduces the file byte for
// byte and a refresh drops nothing.
func TestCommittedReportRoundTrips(t *testing.T) {
	path := filepath.Join("..", "..", committedReport)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), raw) {
		t.Errorf("%s does not round-trip through benchReport:\n%s", committedReport, again)
	}
}
