package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"onepipe"
	"onepipe/internal/sim"
)

// small shrinks a workload to smoke-test size: a tenth of the warm-up, a
// sixteenth of the clients, and (through -seconds 0.2) a fiftieth of the
// window. The code paths are the benchmark's own.
func small(def workloadDef) *workloadDef {
	def.warmup /= 10
	def.clients /= 16
	return &def
}

func smokeRun(def *workloadDef, seed int64) *result {
	return setup(def, seed, nil).measure(plan{window: fixedWindow(def, 0.2)})
}

// wallBased are the counter-table metrics that read the host clock; every
// other one must repeat exactly for one seed.
var wallBased = map[string]bool{"sim.events_per_wall_s": true, "run.wall_spread_share": true}

func TestSameSeedRepeatsExactlyOtherSeedDiffers(t *testing.T) {
	for _, w := range workloads {
		def := small(w)
		a, b, other := smokeRun(def, 1), smokeRun(def, 1), smokeRun(def, 2)
		for _, res := range []*result{a, b, other} {
			if len(res.problems) > 0 {
				t.Errorf("%s: checks failed: %s", def.name, strings.Join(res.problems, "; "))
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s: %d of %d operations failed", def.name, res.failed, res.attempted)
			}
		}
		if a.cp != b.cp {
			t.Errorf("%s: first-segment checkpoints differ for one seed: %+v vs %+v", def.name, a.cp, b.cp)
		}
		if a.cp.Digest == other.cp.Digest {
			t.Errorf("%s: seeds 1 and 2 produced the same delivery digest %#x", def.name, a.cp.Digest)
		}
		ea, eb := endToEndValues(a, []float64{1}), endToEndValues(b, []float64{1})
		for name := range ea {
			if strings.HasPrefix(name, "sim_") && ea[name] != eb[name] {
				t.Errorf("%s: %s = %v then %v for one seed", def.name, name, ea[name], eb[name])
			}
		}
		ca, cb := counterValues(a), counterValues(b)
		for name := range ca {
			if !wallBased[name] && ca[name] != cb[name] {
				t.Errorf("%s: counter %s = %v then %v for one seed", def.name, name, ca[name], cb[name])
			}
		}
	}
}

func TestMeasureFlagsACheckpointMismatch(t *testing.T) {
	def := small(workloads[0])
	wrong := checkpoint{Events: 1}
	res := setup(def, 1, nil).measure(plan{window: fixedWindow(def, 0.2), expect: &wrong})
	if len(res.problems) == 0 {
		t.Fatal("a run that does not reproduce the expected checkpoint was reported correct")
	}
}

func TestOrderCheckerCatchesSwapAndDuplicate(t *testing.T) {
	type delivery struct {
		ts  sim.Time
		src onepipe.ProcID
		rel bool
	}
	log := []delivery{{10, 1, false}, {10, 2, false}, {11, 0, false}, {5, 3, true}, {12, 1, false}, {9, 3, true}}
	feed := func(log []delivery) *orderChecker {
		c := newOrderChecker(1)
		for _, d := range log {
			c.observe(0, d.ts, d.src, d.rel)
		}
		return c
	}
	if c := feed(log); c.violations != 0 || c.duplicates != 0 {
		t.Fatalf("in-order log (classes interleaved) flagged: %d violations, %d duplicates", c.violations, c.duplicates)
	}
	swapped := append([]delivery(nil), log...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if c := feed(swapped); c.violations == 0 {
		t.Error("swapped deliveries of equal timestamp not flagged")
	}
	swapped = append([]delivery(nil), log...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if c := feed(swapped); c.violations == 0 {
		t.Error("swapped deliveries of different timestamps not flagged")
	}
	if c := feed(append(log, log[len(log)-1])); c.duplicates == 0 {
		t.Error("repeated delivery not flagged")
	}
	if feed(log).digest == feed(swapped).digest {
		t.Error("digest does not depend on delivery order")
	}
}

func TestCoreProbeRunsTheWorkloadPath(t *testing.T) {
	cp, err := probeCore(64)
	if err != nil {
		t.Fatal(err) // a message undelivered, the window closed, or a send refused
	}
	// The best-effort broadcast never coalesces: one data packet and one ACK
	// per message (matchesWorkload checks this against a traced run).
	if cp.beDataPktsPerMsg != 1 || cp.beAckPktsPerMsg != 1 {
		t.Errorf("probe emitted %.3f data and %.3f ACK packets per message, want 1 and 1", cp.beDataPktsPerMsg, cp.beAckPktsPerMsg)
	}
}

func TestLayerProbesRun(t *testing.T) {
	if _, err := probePath(200); err != nil {
		t.Error(err)
	}
	if _, err := probeWire(400); err != nil {
		t.Error(err)
	}
	if b := probeBeacons(onepipe.Defaults().Topology); b.eventsPerLinkTick <= 0 {
		t.Errorf("beacon probe saw no events: %+v", b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed int64, wall, p50, spread float64) record {
		vals := map[string]float64{}
		for _, d := range endToEnd {
			vals[d.name] = 1
		}
		vals["wall_msgs_per_s"], vals["sim_p50_us"] = wall, p50
		return record{Workload: "bcast-be", Seed: seed, Seconds: 10, Correct: true, Spread: spread, Metrics: metricSet(endToEnd, vals)}
	}
	write := func(recs ...record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			line, _ := json.Marshal(r)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(t.TempDir(), "recs.jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name      string
		base, cur record
		want      string
		wantWorse bool
	}{
		{"within the bound", mk(1, 100, 5, 0.01), mk(1, 95, 5, 0.01), "wall_msgs_per_s 100 95 0.9500 same", false},
		{"slower than the bound", mk(1, 100, 5, 0.01), mk(1, 70, 5, 0.01), "wall_msgs_per_s 100 70 0.7000 worse", true},
		{"noisier than the bound", mk(1, 100, 5, 0.01), mk(1, 70, 5, 0.30), "wall_msgs_per_s 100 70 0.7000 unresolved", false},
		{"sim metric moved for one seed", mk(1, 100, 5, 0.01), mk(1, 100, 5.01, 0.01), "sim_p50_us 5 5.01 1.0020 moved", false},
		{"sim metric differs across seeds", mk(1, 100, 5, 0.01), mk(2, 100, 5.01, 0.01), "sim_p50_us 5 5.01 1.0020 same", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, write(c.base), write(c.cur))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		squeezed := strings.Join(strings.Fields(out.String()), " ")
		if !strings.Contains(squeezed, c.want) || worse != c.wantWorse {
			t.Errorf("%s: worse=%v, output lacks %q:\n%s", c.name, worse, c.want, out.String())
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the Go tables one
// definition, inside the limits the benchmark contract sets.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, benchmark %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why (%d chars) outside the contract's limits", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, the benchmark %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, benchmark %+v", i, got, d)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract's limits", d)
		}
	}
	for i, d := range perLayer {
		got := m.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: manifest %+v, benchmark %+v", i, got, d)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("per-layer metric %+v outside the contract's limits", d)
		}
	}
}
