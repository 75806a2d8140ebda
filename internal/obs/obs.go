// Package obs is the message-lifecycle observability layer: it decomposes
// the paper's end-to-end delivery latency (§7.2, Figs. 9/10) into the
// stages a message actually passes through —
//
//	submit → credit-acquired/launched → emitted → per-hop switch forward
//	       → received/reassembled → barrier-released → delivered
//
// — as cheap timestamped span records aggregated into bounded-memory
// streaming histograms (stats.Histogram), so million-message runs never
// hold individual samples.
//
// Tracing is nil-safe and compiled-out-cheap: every hook is a method on
// *Trace that returns immediately on a nil receiver, so an uninstrumented
// host pays exactly one predictable branch per potential record site
// (verified by BenchmarkSendPathTracing in internal/core). An installed
// Trace can additionally be paused at runtime through an atomic flag
// without tearing the pointer out from under concurrent substrates.
package obs

import (
	"sync"
	"sync/atomic"

	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// Span identifies one measured segment of the message lifecycle (or, for
// the Switch* gauges, a periodically sampled in-network quantity).
type Span uint8

const (
	// SpanCreditWait is submit → launch: time a scattering spends blocked
	// in the send buffer waiting for window credits (§6.1).
	SpanCreditWait Span = iota
	// SpanXmitWait is launch → packet emission: time a fragment waits in
	// the send queue for window space (streaming of oversized scatterings).
	SpanXmitWait
	// SpanAckWait is launch → final end-to-end ACK of the scattering,
	// measured at the sender. For reliable traffic this is the Prepare
	// phase of the 2PC and lower-bounds the commit wait (§5.1).
	SpanAckWait
	// SpanNetTransit is launch (the message timestamp) → message fully
	// reassembled at the receiver: propagation + queueing + reassembly,
	// measured against the receiver clock (skew-bounded).
	SpanNetTransit
	// SpanSwitchQueue is the egress queueing delay accumulated across every
	// switch hop of the packet's path (netsim substrate only).
	SpanSwitchQueue
	// SpanBarrierWait is reassembled → barrier release: time a complete
	// message waits in the reorder buffer for the delivery barrier — the
	// component the paper's Fig. 9 decomposition attributes to beacon
	// interval and clock skew.
	SpanBarrierWait
	// SpanE2E is launch → delivery at the receiver.
	SpanE2E
	// SpanSwitchLagBE and SpanSwitchLagC sample how far a switch's
	// aggregated best-effort / commit barrier output trails the true
	// clock (per-switch barrier-lag gauge).
	SpanSwitchLagBE
	SpanSwitchLagC
	// SpanSwitchQDepth samples per-link egress backlog (ns of serialization
	// already committed ahead of a new arrival).
	SpanSwitchQDepth

	// NumSpans bounds the span enum.
	NumSpans
)

var spanNames = [NumSpans]string{
	"credit-wait",
	"xmit-wait",
	"ack-wait",
	"net-transit",
	"switch-queueing",
	"barrier-wait",
	"e2e",
	"switch-lag-be",
	"switch-lag-c",
	"switch-qdepth",
}

func (s Span) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "?"
}

// Trace aggregates per-span latency histograms for one host (or one
// network). All durations are recorded in nanoseconds.
//
// A nil *Trace is valid and records nothing.
type Trace struct {
	armed atomic.Bool
	mu    sync.Mutex
	hists [NumSpans]stats.Histogram
}

// NewTrace returns an armed tracer.
func NewTrace() *Trace {
	t := &Trace{}
	t.armed.Store(true)
	return t
}

// On reports whether recording is active; hot paths use it to skip clock
// reads. Nil-safe.
func (t *Trace) On() bool { return t != nil && t.armed.Load() }

// SetArmed pauses or resumes recording without detaching the tracer.
func (t *Trace) SetArmed(on bool) {
	if t != nil {
		t.armed.Store(on)
	}
}

// Rec records one span duration. Nil-safe; negative durations (cross-host
// clock skew) clamp to zero inside the histogram.
func (t *Trace) Rec(s Span, d sim.Time) {
	if t == nil || !t.armed.Load() {
		return
	}
	t.mu.Lock()
	t.hists[s].Add(float64(d))
	t.mu.Unlock()
}

// Snapshot copies the current histograms; later recording does not show in
// the copy.
func (t *Trace) Snapshot() [NumSpans]stats.Histogram {
	var out [NumSpans]stats.Histogram
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range out {
		out[i].Merge(&t.hists[i])
	}
	return out
}

// Reset clears all histograms (e.g. after warmup).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.hists {
		t.hists[i].Reset()
	}
	t.mu.Unlock()
}

// Merge aggregates any number of tracers into one histogram set, skipping
// nils — the cluster-wide view the breakdown table prints.
func Merge(traces ...*Trace) [NumSpans]stats.Histogram {
	var out [NumSpans]stats.Histogram
	for _, t := range traces {
		if t == nil {
			continue
		}
		snap := t.Snapshot()
		for i := range snap {
			out[i].Merge(&snap[i])
		}
	}
	return out
}

// SpanSummary is the exported per-span digest (microseconds), the unit the
// paper's figures use.
type SpanSummary struct {
	Span  string  `json:"span"`
	Count uint64  `json:"count"`
	MeanU float64 `json:"mean_us"`
	P50U  float64 `json:"p50_us"`
	P95U  float64 `json:"p95_us"`
	P99U  float64 `json:"p99_us"`
	MaxU  float64 `json:"max_us"`
}

// Summarize digests a histogram set into per-span microsecond summaries,
// omitting empty spans.
func Summarize(hists [NumSpans]stats.Histogram) []SpanSummary {
	const us = float64(sim.Microsecond)
	var out []SpanSummary
	for i := range hists {
		h := &hists[i]
		if h.N() == 0 {
			continue
		}
		out = append(out, SpanSummary{
			Span:  Span(i).String(),
			Count: h.N(),
			MeanU: h.Mean() / us,
			P50U:  h.Percentile(50) / us,
			P95U:  h.Percentile(95) / us,
			P99U:  h.Percentile(99) / us,
			MaxU:  h.Max() / us,
		})
	}
	return out
}
