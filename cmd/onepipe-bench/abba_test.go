package main

import "testing"

func TestPairOrderAlternates(t *testing.T) {
	for p := 0; p < abbaPairs; p++ {
		first, second := pairOrder(p)[0], pairOrder(p)[1]
		if first == second || first != p%2 {
			t.Errorf("pair %d runs sides %d then %d", p, first, second)
		}
	}
}

func TestCountWinsTies(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 8}
	if cw, bw := countWins(base, change, false); cw != 2 || bw != 1 {
		t.Errorf("lower better: %d:%d, want 2:1 (one tie)", cw, bw)
	}
	if cw, bw := countWins(base, change, true); cw != 1 || bw != 2 {
		t.Errorf("higher better: %d:%d, want 1:2 (one tie)", cw, bw)
	}
}

func TestMicroVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // IQR 2
	shift := func(by float64, losses ...int) []float64 {
		v := make([]float64, len(base))
		for i, b := range base {
			v[i] = b - by
		}
		for _, i := range losses {
			v[i] = base[i] + 1
		}
		return v
	}
	tie := shift(10)
	tie[3] = base[3]
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"10/10 faster", shift(10), "better"},
		{"9/10 faster", shift(10, 4), "better"},
		{"8/10 faster", shift(10, 4, 7), "same"},
		{"9/10 faster and a tie", tie, "better"},
		{"8/10 faster and a tie", func() []float64 { v := shift(10, 4); v[3] = base[3]; return v }(), "same"},
		{"10/10 faster inside the IQR", shift(1.5), "same"},
		{"10/10 slower", shift(-10), "worse"},
		{"identical", shift(0), "same"},
	} {
		if got := microVerdict(base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestKeepUnlessChanged(t *testing.T) {
	committed := benchResult{NsPerOp: 52.24, Runs: 5, NsPerOpMin: 51.69, NsPerOpMax: 61.87}
	fresh := benchResult{NsPerOp: 40.1, Runs: 10, NsPerOpMin: 38.2, NsPerOpMax: 44.0, AllocsPerOp: 1,
		Metrics: map[string]float64{"events": 7}}
	kept := keepUnlessChanged(committed, true, fresh, "same")
	if kept.NsPerOp != 52.24 || kept.Runs != 10 || kept.NsPerOpMin != 38.2 || kept.NsPerOpMax != 44.0 ||
		kept.AllocsPerOp != 1 || kept.Metrics["events"] != 7 {
		t.Errorf("same row written as %+v, want committed ns/op with the new spread and counts", kept)
	}
	for _, v := range []string{"better", "worse"} {
		if got := keepUnlessChanged(committed, true, fresh, v); got.NsPerOp != 40.1 {
			t.Errorf("%s row kept ns/op %v", v, got.NsPerOp)
		}
	}
	if got := keepUnlessChanged(benchResult{}, false, fresh, "absent-base"); got.NsPerOp != 40.1 {
		t.Errorf("new row written with ns/op %v", got.NsPerOp)
	}
}
