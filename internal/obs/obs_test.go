package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"onepipe/internal/sim"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.On() {
		t.Fatal("nil trace reports On")
	}
	tr.Rec(SpanE2E, 5) // must not panic
	tr.SetArmed(true)
	tr.Reset()
	if snap := tr.Snapshot(); snap[SpanE2E].N() != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestTraceRecordAndMerge(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	a.Rec(SpanE2E, 1000)
	a.Rec(SpanE2E, 2000)
	b.Rec(SpanE2E, 3000)
	b.Rec(SpanAckWait, 500)
	m := Merge(a, nil, b)
	if n := m[SpanE2E].N(); n != 3 {
		t.Fatalf("merged e2e count %d, want 3", n)
	}
	if n := m[SpanAckWait].N(); n != 1 {
		t.Fatalf("merged ack-wait count %d, want 1", n)
	}
	sums := Summarize(m)
	if len(sums) != 2 {
		t.Fatalf("Summarize returned %d spans, want 2 non-empty", len(sums))
	}
}

func TestTraceDisarm(t *testing.T) {
	tr := NewTrace()
	tr.SetArmed(false)
	tr.Rec(SpanE2E, 1000)
	snap := tr.Snapshot()
	if snap[SpanE2E].N() != 0 {
		t.Fatal("disarmed trace recorded")
	}
	tr.SetArmed(true)
	tr.Rec(SpanE2E, 1000)
	snap = tr.Snapshot()
	if snap[SpanE2E].N() != 1 {
		t.Fatal("re-armed trace did not record")
	}
}

// TestSnapshotIsACopy: a histogram's buckets are a slice, so Snapshot must
// copy them rather than the slice header — recording after the snapshot
// must not move its percentiles.
func TestSnapshotIsACopy(t *testing.T) {
	tr, ref := NewTrace(), NewTrace()
	for _, d := range []sim.Time{1, 1000} {
		tr.Rec(SpanE2E, d)
		ref.Rec(SpanE2E, d)
	}
	snap := tr.Snapshot()
	for i := 0; i < 9; i++ {
		tr.Rec(SpanE2E, 500) // a bucket the snapshot already has
	}
	want := ref.Snapshot()
	if got, w := snap[SpanE2E].Percentile(99), want[SpanE2E].Percentile(99); got != w {
		t.Fatalf("snapshot moved: p99 %g, want %g", got, w)
	}
}

func TestServeDebugOnepipeEndpoint(t *testing.T) {
	tr := NewTrace()
	tr.Rec(SpanE2E, 1500)
	srv, err := ServeDebug("127.0.0.1:0", func() map[string]*Trace {
		return map[string]*Trace{"host0": tr}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/debug/onepipe")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out map[string][]SpanSummary
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out["host0"]) != 1 || out["host0"][0].Span != "e2e" {
		t.Fatalf("unexpected breakdown: %s", body)
	}
	// The standard debug pages must be mounted too.
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		r, err := http.Get("http://" + srv.Addr + path)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v (status %v)", path, err, r)
		}
		r.Body.Close()
	}
}

// BenchmarkRecNil measures the disabled-tracing cost: one nil check.
func BenchmarkRecNil(b *testing.B) {
	var tr *Trace
	for i := 0; i < b.N; i++ {
		tr.Rec(SpanE2E, sim.Time(i))
	}
}

func BenchmarkRecArmed(b *testing.B) {
	tr := NewTrace()
	for i := 0; i < b.N; i++ {
		tr.Rec(SpanE2E, sim.Time(i))
	}
}
