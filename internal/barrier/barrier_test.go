package barrier

import (
	"math/rand"
	"testing"

	"onepipe/internal/sim"
)

// drained is the sentinel a drained input's registers are raised to, as the
// simulator's DrainLink does.
const drained = sim.Time(1) << 62

// refSet is the plain scan the Set replaced: registers, membership and the
// clamp, with the minimum recomputed from scratch on every read.
type refSet struct {
	reg    [][2]sim.Time
	member [][2]bool
	out    [2]sim.Time
}

func (r *refSet) min(p Plane) (sim.Time, bool) {
	var m sim.Time
	ok := false
	for i := range r.reg {
		if r.member[i][p] && (!ok || r.reg[i][p] < m) {
			m, ok = r.reg[i][p], true
		}
	}
	return m, ok
}

func (r *refSet) aggregate() [2]sim.Time {
	for p := BE; p <= C; p++ {
		if m, ok := r.min(p); ok && m > r.out[p] {
			r.out[p] = m
		}
	}
	return r.out
}

// FuzzRegisterSet drives a Set with a script of raises (some below the
// register, some equal to another input's), membership flips, admissions
// seeded at the aggregate (the star switch's Admit), drains to the sentinel
// (the simulator's DrainLink) and aggregate reads, beside refSet. After
// every step the minimum of each plane, the input reported as holding it and
// the clamped output must agree with the scan — read from a copy of the Set,
// so that staleness still builds up across steps in the original.
func FuzzRegisterSet(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 0, 5, 5, 0, 1, 9, 9, 4, 1, 1, 0, 4, 3, 2, 4})
	f.Add([]byte{2, 2, 2, 2, 0, 3, 1, 0, 0, 0, 0, 2, 2, 0, 1, 1, 1, 4, 0, 0, 7, 7, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		var s Set
		var ref refSet
		pos := 0
		arg := func() byte {
			if pos == len(script) {
				return 0
			}
			b := script[pos]
			pos++
			return b
		}
		admit := func() {
			out := ref.aggregate()
			be, c := s.Out()
			if i := s.Add(be, c); i != len(ref.reg) {
				t.Fatalf("Add returned %d, want %d", i, len(ref.reg))
			}
			ref.reg = append(ref.reg, out)
			ref.member = append(ref.member, [2]bool{true, true})
			s.SetMember(len(ref.reg)-1, BE, true)
			s.SetMember(len(ref.reg)-1, C, true)
		}
		check := func(step int) {
			t.Helper()
			probe := s
			for p := BE; p <= C; p++ {
				want, wantOK := ref.min(p)
				got, ok := probe.least(p)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d plane %d: min (%d, %v), scan (%d, %v)", step, p, got, ok, want, wantOK)
				}
				a := int(probe.top[p]) - 1
				if !ok {
					if a != -1 {
						t.Fatalf("step %d plane %d: argmin %d on an empty plane", step, p, a)
					}
					continue
				}
				if a < 0 || !ref.member[a][p] || ref.reg[a][p] != want {
					t.Fatalf("step %d plane %d: argmin %d does not hold the minimum %d", step, p, a, want)
				}
			}
			lastBE, lastC := s.Last()
			be, c := probe.Out()
			var clamp [2]sim.Time
			for p := BE; p <= C; p++ {
				clamp[p] = ref.out[p]
				if m, ok := ref.min(p); ok && m > clamp[p] {
					clamp[p] = m
				}
			}
			if be != clamp[BE] || c != clamp[C] || be < lastBE || c < lastC {
				t.Fatalf("step %d: output (%d, %d), scan (%d, %d), last (%d, %d)", step, be, c, clamp[BE], clamp[C], lastBE, lastC)
			}
			for i := range ref.reg {
				rbe, rc := s.Reg(i)
				if rbe != ref.reg[i][BE] || rc != ref.reg[i][C] ||
					s.Member(i, BE) != ref.member[i][BE] || s.Member(i, C) != ref.member[i][C] {
					t.Fatalf("step %d: input %d diverged from the scan", step, i)
				}
			}
		}
		admit()
		for step := 0; pos < len(script); step++ {
			op := arg() % 5
			if op != 2 && len(ref.reg) == 0 {
				continue
			}
			switch op {
			case 0: // raise by -3..+4 per plane: below, equal or above
				i := int(arg()) % len(ref.reg)
				d := arg()
				be := ref.reg[i][BE] + sim.Time(d%8) - 3
				c := ref.reg[i][C] + sim.Time(d/8%8) - 3
				s.Raise(i, be, c)
				ref.reg[i][BE] = max(ref.reg[i][BE], be)
				ref.reg[i][C] = max(ref.reg[i][C], c)
			case 1: // membership flip
				b := arg()
				i, p := int(b>>1)%len(ref.reg), Plane(b&1)
				on := !ref.member[i][p]
				s.SetMember(i, p, on)
				ref.member[i][p] = on
			case 2:
				if len(ref.reg) < 32 {
					admit()
				}
			case 3: // drain
				i := int(arg()) % len(ref.reg)
				s.SetMember(i, BE, false)
				s.SetMember(i, C, false)
				s.Raise(i, drained, drained)
				ref.member[i] = [2]bool{}
				ref.reg[i] = [2]sim.Time{max(ref.reg[i][BE], drained), max(ref.reg[i][C], drained)}
			case 4:
				out := ref.aggregate()
				if be, c := s.Out(); be != out[BE] || c != out[C] {
					t.Fatalf("step %d: Out (%d, %d), scan (%d, %d)", step, be, c, out[BE], out[C])
				}
			}
			check(step)
		}
	})
}

// The zero Set and a Set whose inputs all left a plane report no minimum,
// and the output holds where it was.
func TestEmptyPlaneHoldsOutput(t *testing.T) {
	var s Set
	if _, ok := s.least(BE); ok || s.top[C] != 0 {
		t.Fatal("the zero Set reports a minimum")
	}
	i := s.Add(0, 0)
	s.SetMember(i, BE, true)
	s.SetMember(i, C, true)
	s.Raise(i, 50, 40)
	if be, c := s.Out(); be != 50 || c != 40 {
		t.Fatalf("Out (%d, %d), want (50, 40)", be, c)
	}
	s.SetMember(i, C, false)
	if be, c := s.Out(); be != 50 || c != 40 {
		t.Fatalf("after the commit plane emptied: Out (%d, %d), want (50, 40)", be, c)
	}
	if _, ok := s.least(C); ok {
		t.Fatal("emptied commit plane reports a minimum")
	}
}

// Raising inputs other than the one holding the minimum never rescans; the
// minimum's own rise does, once.
func TestRaiseRescansOnlyOnArgmin(t *testing.T) {
	var s Set
	for i := 0; i < 16; i++ {
		s.Add(sim.Time(100+i), sim.Time(100+i))
		s.SetMember(i, BE, true)
		s.SetMember(i, C, true)
	}
	s.Out()
	for i := 1; i < 16; i++ {
		s.Raise(i, 500, 500)
		if s.stale != 0 {
			t.Fatalf("raising input %d, which does not hold the minimum, marked a plane stale", i)
		}
	}
	s.Raise(0, 400, 400)
	if s.stale != 1<<BE|1<<C {
		t.Fatalf("raising the argmin left stale=%b, want both planes", s.stale)
	}
	if be, c := s.Out(); be != 400 || c != 400 || s.top[BE] != 1 {
		t.Fatalf("Out (%d, %d) held by input %d, want (400, 400) by input 0", be, c, s.top[BE]-1)
	}
}

// BenchmarkNodeBarriers is one barrier arrival plus one aggregate read at a
// fan-in-16 switch: the ToR up half of the benchmark's sparse-fabric, whose
// hosts beacon round-robin once per interval from clocks a random offset
// apart. One arrival in four then raises the input holding the minimum
// (the workload's own fan-in-16 nodes see 18 %) and costs a rescan.
func BenchmarkNodeBarriers(b *testing.B) {
	const fanIn = 16
	const interval = 5 * sim.Microsecond
	rng := rand.New(rand.NewSource(1))
	var off [fanIn]sim.Time
	for i := range off {
		off[i] = sim.Time(rng.Intn(int(sim.Microsecond)))
	}
	var s Set
	for i := 0; i < fanIn; i++ {
		s.Add(0, 0)
		s.SetMember(i, BE, true)
		s.SetMember(i, C, true)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % fanIn
		t := sim.Time(i/fanIn+1)*interval + off[j]
		s.Raise(j, t, t)
		s.Out()
	}
}
