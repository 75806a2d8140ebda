package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Histogram is a bounded-memory streaming histogram with log-linear
// buckets (HDR-style): non-negative values are grouped by their power-of-
// two octave, each octave split into histSub linear sub-buckets, so the
// relative quantization error is at most 1/histSub (~3%) across the full
// int64 range. The bucket array grows only up to the highest bucket
// touched — a few hundred bytes for small counts such as batch sizes, about
// 15 KB for values spanning the int64 range — however many samples
// are recorded, which is what lets million-message runs keep per-stage
// latency distributions without holding every observation (contrast with
// Sample, which stores all points for exact percentiles).
//
// The zero value is ready to use. A copy shares the bucket array with its
// original, so copy through Merge into a zero Histogram instead. Histogram
// is not goroutine-safe; callers that share one across goroutines must
// synchronize (obs.Trace does).
type Histogram struct {
	counts []uint64 // by bucket, up to the highest bucket touched
	n      uint64
	sum    float64
	min    float64
	max    float64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Octaves above the linear region: value bit-lengths histSubBits+1..64.
	histBuckets = histSub * (64 - histSubBits + 1)
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(u uint64) int {
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	return (exp-histSubBits+1)*histSub + int((u>>(exp-histSubBits))&(histSub-1))
}

// bucketValue returns the representative (midpoint) value of a bucket.
func bucketValue(b int) float64 {
	q, r := b/histSub, b%histSub
	if q == 0 {
		return float64(r) + 0.5
	}
	lo := uint64(histSub+r) << (q - 1)
	width := uint64(1) << (q - 1)
	return float64(lo) + float64(width)/2
}

// Add records one observation. Negative values clamp to zero (latency
// spans can go slightly negative under clock skew between hosts).
func (h *Histogram) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if h.n == 0 || x > h.max {
		h.max = x
	}
	h.n++
	h.sum += x
	u := uint64(x)
	if x > math.MaxInt64 {
		u = math.MaxInt64
	}
	b := bucketOf(u)
	h.grow(b + 1)
	h.counts[b]++
}

// grow extends counts to at least n buckets, the new ones zero.
func (h *Histogram) grow(n int) {
	if old := len(h.counts); n > old {
		h.counts = slices.Grow(h.counts, n-old)[:n]
		clear(h.counts[old:])
	}
}

// N reports the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the exact arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest recorded value (exact).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest recorded value (exact).
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns the p-th percentile (p in [0,100]) to within the
// bucket quantization, or 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketValue(b)
			// Clamp to the exact extremes so p1/p99 of tiny samples do not
			// escape [min, max] through quantization.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	h.grow(len(other.counts))
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// Reset clears the histogram for reuse.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary formats mean with p5/p95 bounds, mirroring Sample.Summary.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("%.2f [p5 %.2f, p95 %.2f]", h.Mean(), h.Percentile(5), h.Percentile(95))
}
