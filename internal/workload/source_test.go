package workload

import (
	"runtime"
	"slices"
	"testing"

	"onepipe/internal/race"
	"onepipe/internal/sim"
)

// drain pulls up to n intents.
func drain(s Source, n int) []Intent {
	var out []Intent
	for len(out) < n {
		it, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out
}

// TestRoundRobinSchedule pins the broadcast source against the historical
// ticker loop: first fire at phase+gap, destinations cycling and skipping
// self, time-nondecreasing across the stream.
func TestRoundRobinSchedule(t *testing.T) {
	const n, gap = 4, sim.Time(1000)
	its := drain(NewRoundRobin(n, gap, 64, false), 4*n)
	// Process 0's first three sends: to 1, 2, 3 at gap, 2*gap, 3*gap.
	want := []struct {
		src, dst int
		at       sim.Time
	}{
		{0, 1, 1000}, {1, 2, 1250}, {2, 3, 1500}, {3, 0, 1750},
		{0, 2, 2000}, {1, 3, 2250}, {2, 0, 2500}, {3, 1, 2750},
		{0, 3, 3000}, {1, 0, 3250}, {2, 1, 3500}, {3, 2, 3750},
		{0, 1, 4000}, {1, 2, 4250}, {2, 3, 4500}, {3, 0, 4750},
	}
	for i, w := range want {
		it := its[i]
		if it.Src != w.src || it.Dsts[0] != w.dst || it.At != w.at {
			t.Fatalf("intent %d: got src=%d dst=%d at=%d, want src=%d dst=%d at=%d",
				i, it.Src, it.Dsts[0], it.At, w.src, w.dst, w.at)
		}
	}
}

// TestSyntheticDeterminism: equal seeds emit identical streams; the stream
// is time-nondecreasing, self-sends never happen, and the diurnal ramp
// actually modulates density.
func TestSyntheticDeterminism(t *testing.T) {
	mk := func() *Synthetic {
		return NewSynthetic(SyntheticConfig{
			Procs: 16, MeanGap: 500, Fanout: 2, Size: ETCSize,
			ZipfTheta: 0.99, ReliableFrac: 0.3, Seed: 7,
			Rate: Diurnal(200*sim.Microsecond, 0.5, 2),
			Stop: 400 * sim.Microsecond,
		})
	}
	a, b := drain(mk(), 100000), drain(mk(), 100000)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths differ or empty: %d vs %d", len(a), len(b))
	}
	var last sim.Time
	for i := range a {
		if a[i].At != b[i].At || a[i].Src != b[i].Src || a[i].Size != b[i].Size ||
			len(a[i].Dsts) != len(b[i].Dsts) || a[i].Opts != b[i].Opts {
			t.Fatalf("intent %d differs between equal-seed streams", i)
		}
		if a[i].At < last {
			t.Fatalf("intent %d: time went backwards", i)
		}
		last = a[i].At
		for _, d := range a[i].Dsts {
			if d == a[i].Src {
				t.Fatalf("intent %d: self-send", i)
			}
		}
	}
}

// TestZipfSkewsDestinations: with heavy skew the hottest destination must
// receive far more than its uniform share.
func TestZipfSkewsDestinations(t *testing.T) {
	s := NewSynthetic(SyntheticConfig{Procs: 32, MeanGap: 100, ZipfTheta: 0.99, Seed: 3})
	counts := make([]int, 32)
	for i := 0; i < 20000; i++ {
		it, _ := s.Next()
		counts[it.Dsts[0]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*20000/32 {
		t.Errorf("hottest destination got %d of 20000; want heavy skew (>3x uniform share)", max)
	}
}

// TestIncastBursts: every period exactly Fanin senders hit the victim at
// one instant, none of them the victim itself.
func TestIncastBursts(t *testing.T) {
	in := NewIncast(16, 5, 8, 50*sim.Microsecond, 128, 0, 300*sim.Microsecond)
	byAt := map[sim.Time]int{}
	for {
		it, ok := in.Next()
		if !ok {
			break
		}
		if it.Dsts[0] != 5 {
			t.Fatalf("intent to %d, want victim 5", it.Dsts[0])
		}
		if it.Src == 5 {
			t.Fatal("victim sends to itself")
		}
		byAt[it.At]++
	}
	if len(byAt) != 5 {
		t.Fatalf("got %d bursts, want 5", len(byAt))
	}
	for at, n := range byAt {
		if n != 8 {
			t.Errorf("burst at %d has %d senders, want 8", at, n)
		}
	}
}

// TestMergeOrders: merged streams come out time-sorted with deterministic
// tie-breaks.
func TestMergeOrders(t *testing.T) {
	a := NewIncast(8, 0, 2, 1000, 64, 0, 10000)
	b := NewIncast(8, 1, 3, 700, 64, 0, 10000)
	m := Merge(a, b)
	var last sim.Time
	n := 0
	for {
		it, ok := m.Next()
		if !ok {
			break
		}
		if it.At < last {
			t.Fatalf("merge emitted time %d after %d", it.At, last)
		}
		last = it.At
		n++
	}
	if n != 9*2+14*3 {
		t.Errorf("merged %d intents, want %d", n, 9*2+14*3)
	}
}

// TestReplayReproducesSource: a composite source drained into a slice and
// replayed yields the stream a fresh source with the same seed emits,
// intent for intent.
func TestReplayReproducesSource(t *testing.T) {
	mk := func() Source {
		return Merge(
			NewSynthetic(SyntheticConfig{
				Procs: 12, MeanGap: 800, Fanout: 2, Size: ETCSize,
				ZipfTheta: 0.99, ReliableFrac: 0.4, Seed: 11,
				Stop: 200 * sim.Microsecond,
			}),
			NewIncast(12, 3, 6, 40*sim.Microsecond, 256, 0, 200*sim.Microsecond),
		)
	}
	replayed := drain(NewReplay(drain(mk(), 1<<30)), 1<<30)
	fresh := drain(mk(), 1<<30)
	if len(replayed) != len(fresh) || len(fresh) == 0 {
		t.Fatalf("replayed %d intents, fresh source emitted %d", len(replayed), len(fresh))
	}
	for i, a := range fresh {
		b := replayed[i]
		if a.At != b.At || a.Src != b.Src || !slices.Equal(a.Dsts, b.Dsts) || a.Size != b.Size || a.Opts != b.Opts {
			t.Fatalf("intent %d: replayed %+v, fresh %+v", i, b, a)
		}
	}
}

// generators are the sources that draw their own destinations, each at the
// fanouts it supports.
func generators() map[string]func() Source {
	syn := func(fanout int) func() Source {
		return func() Source {
			return NewSynthetic(SyntheticConfig{Procs: 64, MeanGap: 100, Fanout: fanout,
				ZipfTheta: 0.99, ReliableFrac: 0.3, Seed: 3})
		}
	}
	return map[string]func() Source{
		"RoundRobin":         func() Source { return NewRoundRobin(64, 200, 64, false) },
		"Incast":             func() Source { return NewIncast(64, 5, 8, 1000, 64, 0, 0) },
		"Synthetic/fanout=1": syn(1),
		"Synthetic/fanout=4": syn(4),
	}
}

// TestSourceNextAllocs: a generator carves each intent's Dsts from a chunk
// of its own instead of allocating a slice per intent, so drawing an intent
// costs at most one allocation per hundred, at fanout 1 and at fanout 4.
func TestSourceNextAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n = 100000
	for name, mk := range generators() {
		src := mk()
		drain(src, 1000) // warm: the first chunk, the Zipf tables
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, ok := src.Next(); !ok {
				t.Fatalf("%s: stream ended after %d intents", name, i)
			}
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / n; got > 0.01 {
			t.Errorf("%s: %.4f allocs per intent, want at most 0.01", name, got)
		}
	}
}

// TestSourceDstsStayValid: Dsts is shared storage, so every generator must
// leave an emitted intent's destinations alone for good. 10 000 intents are
// kept with a copy of their Dsts taken when each was drawn, and re-checked
// after the stream has moved on; an append to one must not reach the next.
func TestSourceDstsStayValid(t *testing.T) {
	const n = 10000
	for name, mk := range generators() {
		src := mk()
		kept := drain(src, n)
		if len(kept) != n {
			t.Fatalf("%s: %d of %d intents", name, len(kept), n)
		}
		want := make([][]int, n)
		for i, it := range kept {
			want[i] = slices.Clone(it.Dsts)
			if cap(it.Dsts) != len(it.Dsts) {
				t.Fatalf("%s: intent %d's Dsts has room to append into its neighbour", name, i)
			}
		}
		drain(src, 3*n) // several more chunks
		for i := range kept {
			_ = append(kept[i].Dsts, -1)
		}
		for i, it := range kept {
			if !slices.Equal(it.Dsts, want[i]) {
				t.Fatalf("%s: intent %d's Dsts became %v, was %v", name, i, it.Dsts, want[i])
			}
		}
	}
}
