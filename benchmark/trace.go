package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the program is instrumented. The driver
// is one goroutine and only sim.run (a Cluster.Run slice) has children —
// the delivery callbacks it triggers — so one "current run span" is all the
// parent tracking needed.
type spanKind uint8

const (
	spanNext    spanKind = iota // workload.Source.Next
	spanSend                    // onepipe.Process.Send made by the generator
	spanRun                     // one Cluster.Run slice
	spanDeliver                 // the benchmark's delivery callback body (serve-kv: the tier's dispatch)
	spanWindow                  // the measured window of the serving tier
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"workload.next", "onepipe.send", "sim.run", "app.deliver", "serve.window"}

type span struct {
	id, parent int32
	kind       spanKind
	start, end int64 // wall ns since the tracer was created
	scat       int32 // scattering the span belongs to (-1: none); spans of one scattering share it
}

// maxStoredSpans bounds the spans kept for the trace file; totals cover
// every span.
const maxStoredSpans = 200000

type tracer struct {
	base   time.Time
	spans  []span
	count  [numSpanKinds]uint64
	total  [numSpanKinds]int64 // summed durations, ns
	nextID int32
	runID  int32 // open sim.run span, -1 when none
	winID  int32 // open serve.window span, -1 when none
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxStoredSpans), runID: -1, winID: -1}
}

// reset forgets every span recorded so far.
func (t *tracer) reset() {
	*t = tracer{base: t.base, spans: t.spans[:0], runID: -1, winID: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() int32 {
	id := t.nextID
	t.nextID++
	return id
}

func (t *tracer) record(id, parent int32, kind spanKind, start, end int64, scat int32) {
	t.count[kind]++
	t.total[kind] += end - start
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{id: id, parent: parent, kind: kind, start: start, end: end, scat: scat})
	}
}

// leaf records a childless span that started at start and ends now.
func (t *tracer) leaf(kind spanKind, start int64, parent, scat int32) {
	t.record(t.newID(), parent, kind, start, t.now(), scat)
}

// runSelf is the self time of sim.run: its spans minus the delivery
// callbacks they cover — engine, netsim, core receive and timers together,
// which cannot be split from outside (the probes split it).
func (t *tracer) runSelf() int64 { return t.total[spanRun] - t.total[spanDeliver] }

// write dumps the stored spans as one JSON document.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var all uint64
	for _, c := range t.count {
		all += c
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans_total\":%d,\"spans_stored\":%d,\"spans\":[\n",
		workload, all, len(t.spans))
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"scattering\":%d}%s\n",
			s.id, s.parent, spanNames[s.kind], s.start, s.end, s.scat, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}
