package sim

import (
	"strings"
	"testing"

	"onepipe/internal/race"
)

// benchSchedule is the steady-state scheduling churn: depth pending events,
// every executed one re-scheduling itself lo..lo+span-1 ns ahead, through
// After (a plain func, two=false) or After2.
func benchSchedule(b *testing.B, two bool, lo, span int) {
	e := NewEngine(1)
	const depth = 4096
	var x, y int
	var step func()
	var step2 func(a, b any)
	step = func() { e.After(Time(lo+e.Rand().Intn(span)), step) }
	step2 = func(a, b any) { e.After2(Time(lo+e.Rand().Intn(span)), step2, a, b) }
	for i := 0; i < depth; i++ {
		if two {
			step2(&x, &y)
		} else {
			step()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineSchedule measures steady-state scheduling throughput: a
// K-deep event queue where every executed event re-schedules itself at a
// pseudo-random future offset, all within the wheel. 1/ns-per-op is the
// engine events/sec figure tracked in BENCH_core.json.
func BenchmarkEngineSchedule(b *testing.B) { benchSchedule(b, false, 1, 1000) }

// BenchmarkEngineSchedule2 is the same churn through the At2 fast path
// (capture-free callback, two pointer-shaped arguments) that netsim's
// per-packet hops use.
func BenchmarkEngineSchedule2(b *testing.B) { benchSchedule(b, true, 1, 1000) }

// BenchmarkEngineScheduleFar keeps every delay past the next block, so
// every event is filed at the coarse level and cascaded.
func BenchmarkEngineScheduleFar(b *testing.B) { benchSchedule(b, true, 5000, 100000) }

// BenchmarkEngineScheduleMixed straddles the fine level's edge: about half
// the events are filed at each level.
func BenchmarkEngineScheduleMixed(b *testing.B) { benchSchedule(b, true, 1, 8000) }

// BenchmarkTimerArmCancel measures engine timers at the depth the
// best-effort broadcast keeps send-fail timers armed (32 768). cancel is the
// ACK path: one armed timer is stopped and armed again at a new random
// deadline, the population staying constant. fire is the timeout path:
// the earliest timer fires through the engine and its handler re-arms it,
// BenchmarkEngineSchedule's churn through the timer queues. Deadlines are
// 1–100 000 ns ahead, so about 96 % of the timers sit at the coarse level,
// as send-fail timers and RTOs do; the -near modes keep them 1–1 000 ns
// ahead, all at the fine level, as the doorbell and ACK-flush timers are.
func BenchmarkTimerArmCancel(b *testing.B) {
	for _, mode := range []string{"cancel", "fire", "cancel-near", "fire-near"} {
		fire := strings.HasPrefix(mode, "fire")
		span := 100000
		if strings.HasSuffix(mode, "near") {
			span = 1000
		}
		b.Run(mode, func(b *testing.B) {
			e := NewEngine(1)
			const depth = 32768
			delay := func() Time { return Time(e.Rand().Intn(span)) + 1 }
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
// queue: once the wheel's slab has grown to the working set, At/After/At2
// plus Step allocate nothing, whichever level the event is filed at. A
// regression here (interface boxing, closure capture, slab re-growth)
// multiplies across every simulated packet hop.
func TestEngineScheduleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine(1)
	fn := func() {}
	var x, y int
	fn2 := func(a, b any) {}
	// Grow both levels well past the steady-state depth first, then run at
	// a quarter of it.
	for _, n := range []int{4096, 1024} {
		e.Run()
		for i := 0; i < n; i++ {
			e.After(Time(i%37)+1, fn)
			e.After2(wheelSize+Time(i%37), fn2, &x, &y)
		}
	}
	i := 0
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"near At (boxed func)", func() { e.After(1, fn) }},
		{"near At2", func() { e.After2(1, fn2, &x, &y) }},
		{"far At2", func() { e.After2(2*wheelSize, fn2, &x, &y) }},
		{"mixed", func() { i++; e.After2(Time(i*613%(2*wheelSize)), fn2, &x, &y) }},
	} {
		if avg := testing.AllocsPerRun(1000, func() {
			c.schedule()
			e.Step()
		}); avg != 0 {
			t.Errorf("%s + Step: %v allocs/op, want 0", c.name, avg)
		}
	}
}
