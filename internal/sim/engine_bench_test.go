package sim

import (
	"testing"

	"onepipe/internal/race"
)

// BenchmarkEngineSchedule measures steady-state scheduling throughput: a
// K-deep event heap where every executed event re-schedules itself at a
// pseudo-random future offset. 1/ns-per-op is the engine events/sec figure
// tracked in BENCH_core.json.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	const depth = 4096
	var step func()
	step = func() {
		e.After(Time(e.Rand().Intn(1000))+1, step)
	}
	for i := 0; i < depth; i++ {
		e.After(Time(e.Rand().Intn(1000))+1, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineSchedule2 is the same churn through the At2 fast path
// (capture-free callback, two pointer-shaped arguments) that netsim's
// per-packet hops use.
func BenchmarkEngineSchedule2(b *testing.B) {
	e := NewEngine(1)
	const depth = 4096
	var x, y int
	var step func(a, b any)
	step = func(a, b any) {
		e.After2(Time(e.Rand().Intn(1000))+1, step, a, b)
	}
	for i := 0; i < depth; i++ {
		e.After2(Time(e.Rand().Intn(1000))+1, step, &x, &y)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkTimerArmCancel measures the timer heap at the depth the
// best-effort broadcast keeps send-fail timers armed (32 768). cancel is the
// ACK path: one armed timer is stopped and armed again at a new random
// deadline, the population staying constant. fire is the timeout path:
// the earliest timer fires through the engine and its handler re-arms it,
// BenchmarkEngineSchedule's churn through the timer heap.
func BenchmarkTimerArmCancel(b *testing.B) {
	for _, mode := range []string{"cancel", "fire"} {
		fire := mode == "fire"
		b.Run(mode, func(b *testing.B) {
			e := NewEngine(1)
			const depth = 32768
			delay := func() Time { return Time(e.Rand().Intn(100000)) + 1 }
			tms := make([]*Timer, depth)
			for i := range tms {
				i := i
				tms[i] = NewTimer(e, func() { tms[i].Reset(delay()) })
				tms[i].Reset(delay())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fire {
					e.Step()
					continue
				}
				tm := tms[i%depth]
				tm.Stop()
				tm.Reset(delay())
			}
		})
	}
}

// TestEngineScheduleAllocs pins the zero-allocation property of the event
// queue: once the backing array has grown to the working set, At/After/At2
// plus Step allocate nothing. A regression here (interface boxing, closure
// capture, heap re-growth) multiplies across every simulated packet hop.
func TestEngineScheduleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine(1)
	fn := func() {}
	// Grow the heap past the steady-state depth first.
	for i := 0; i < 1024; i++ {
		e.After(Time(i%37)+1, fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("At+Step: %v allocs/op, want 0", avg)
	}
	var x, y int
	fn2 := func(a, b any) {}
	for i := 0; i < 1024; i++ {
		e.After2(Time(i%37)+1, fn2, &x, &y)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.After2(1, fn2, &x, &y)
		e.Step()
	}); avg != 0 {
		t.Errorf("At2+Step: %v allocs/op, want 0", avg)
	}
}
