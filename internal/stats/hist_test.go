package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's representative value must map back to the same bucket,
	// and bucket boundaries must be monotone.
	prev := -1.0
	for b := 0; b < histBuckets; b++ {
		v := bucketValue(b)
		if v <= prev {
			t.Fatalf("bucket %d value %g not increasing past %g", b, v, prev)
		}
		prev = v
		if got := bucketOf(uint64(v)); got != b {
			t.Fatalf("bucket %d value %g round-trips to bucket %d", b, v, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	var s Sample
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		// Log-uniform latencies spanning ns..ms, the range the tracer sees.
		x := math.Exp(rng.Float64() * math.Log(2e6))
		h.Add(x)
		s.Add(x)
	}
	for _, p := range []float64{5, 50, 95, 99} {
		exact := s.Percentile(p)
		approx := h.Percentile(p)
		// Quantization bound: 1/histSub relative in the log region, ±1
		// absolute in the small linear region (values are nanoseconds in
		// practice, so the linear region is noise).
		if math.Abs(approx-exact) > 1 && math.Abs(approx-exact)/exact > 0.05 {
			t.Fatalf("p%g: exact %.1f approx %.1f", p, exact, approx)
		}
	}
	if err := math.Abs(h.Mean()-s.Mean()) / s.Mean(); err > 1e-9 {
		t.Fatalf("mean drifted: %g vs %g", h.Mean(), s.Mean())
	}
	if h.Min() != s.Min() || h.Max() != s.Max() {
		t.Fatalf("min/max not exact: %g/%g vs %g/%g", h.Min(), h.Max(), s.Min(), s.Max())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(-5) // clamps to 0
	h.Add(math.NaN())
	if h.N() != 2 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative/NaN clamp failed: n=%d min=%g max=%g", h.N(), h.Min(), h.Max())
	}
	h.Reset()
	h.Add(7)
	if h.Percentile(0) != 7 || h.Percentile(100) != 7 || h.Percentile(50) != 7 {
		t.Fatalf("single-sample percentiles: %g %g %g", h.Percentile(0), h.Percentile(50), h.Percentile(100))
	}
}

// TestHistogramGrowsToHighestBucket: the bucket array covers the highest
// bucket touched and no more, and Merge grows to the other histogram's
// length in either direction without changing any percentile.
func TestHistogramGrowsToHighestBucket(t *testing.T) {
	var small, wide, all Histogram
	for i := 0; i < 64; i++ {
		small.Add(float64(i))
		all.Add(float64(i))
	}
	if got, want := len(small.counts), bucketOf(63)+1; got != want {
		t.Fatalf("values below 64: %d buckets, want %d", got, want)
	}
	wide.Add(1e12)
	all.Add(1e12)
	for _, c := range []struct {
		name      string
		into, add Histogram
	}{{"short into wide", wide, small}, {"wide into short", small, wide}} {
		var h Histogram
		h.Merge(&c.into) // a copy that shares no buckets with the original
		h.Merge(&c.add)
		if len(h.counts) != len(wide.counts) {
			t.Fatalf("%s: %d buckets, want %d", c.name, len(h.counts), len(wide.counts))
		}
		for _, p := range []float64{1, 50, 98, 99, 100} {
			if h.Percentile(p) != all.Percentile(p) {
				t.Fatalf("%s: p%g = %g, want %g", c.name, p, h.Percentile(p), all.Percentile(p))
			}
		}
	}
	if len(small.counts) != bucketOf(63)+1 {
		t.Fatal("merging a copy of small grew small")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 1000; i++ {
		x := float64(i * i)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.N() != all.N() || a.Mean() != all.Mean() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merge lost observations")
	}
	if a.Percentile(95) != all.Percentile(95) {
		t.Fatalf("merged p95 %g != direct %g", a.Percentile(95), all.Percentile(95))
	}
}
