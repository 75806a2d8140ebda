// Package barrier is the register file of a 1Pipe switch (§4.1): per input a
// best-effort and a commit barrier register and one membership bit per
// plane, and per plane the minimum over member inputs (eq. 4.1) behind a
// monotone output clamp. Both aggregation sites — the simulator's switches
// (internal/netsim) and the one-rack star (internal/starswitch) — keep their
// registers here; stamping, relay and what decides membership stay with them.
//
// Registers only rise, so raising an input that does not hold a plane's
// minimum cannot move that minimum. Each plane caches (min, argmin); only a
// rise of the argmin's register, or the argmin leaving the plane, marks the
// plane stale, and the next read rescans it. A raise and a membership flip
// are O(1), and so is a read unless the plane is stale.
package barrier

import (
	"math"

	"onepipe/internal/sim"
)

// Plane selects one of the two barrier planes.
type Plane uint8

const (
	// BE is the best-effort plane.
	BE Plane = iota
	// C is the commit plane.
	C
)

// absent stands in for a non-member's register in the array the minimum is
// taken over. It is the largest sim.Time, which no register may hold.
const absent = sim.Time(math.MaxInt64)

// input is one input's registers. eff is reg on the planes the input is a
// member of and absent on the others, so that a rescan compares one value
// per input and tests no membership bit.
type input struct {
	reg, eff [2]sim.Time
}

// Set is one switch's register file. The zero value is an empty set.
type Set struct {
	in  []input
	min [2]sim.Time
	// top is 1 + the input holding min, 0 when the plane has no member.
	top   [2]int32
	stale uint8 // bit p set: min and top of plane p must be rescanned
	out   [2]sim.Time
}

// Add appends an input with registers (be, c) that is a member of neither
// plane, and returns its index.
func (s *Set) Add(be, c sim.Time) int {
	s.in = append(s.in, input{reg: [2]sim.Time{be, c}, eff: [2]sim.Time{absent, absent}})
	return len(s.in) - 1
}

// Reg returns input i's registers.
func (s *Set) Reg(i int) (be, c sim.Time) { return s.in[i].reg[BE], s.in[i].reg[C] }

// Raise advances input i's registers to (be, c) where that is higher; a
// lower value leaves the register alone.
func (s *Set) Raise(i int, be, c sim.Time) {
	in := &s.in[i]
	if be > in.reg[BE] {
		s.raise(in, BE, i, be)
	}
	if c > in.reg[C] {
		s.raise(in, C, i, c)
	}
}

func (s *Set) raise(in *input, p Plane, i int, v sim.Time) {
	in.reg[p] = v
	if in.eff[p] != absent {
		in.eff[p] = v
		if s.top[p] == int32(i)+1 {
			s.stale |= 1 << p
		}
	}
}

// Member reports whether input i counts toward plane p's minimum.
func (s *Set) Member(i int, p Plane) bool { return s.in[i].eff[p] != absent }

// SetMember adds input i to plane p's minimum or removes it.
func (s *Set) SetMember(i int, p Plane, on bool) {
	if s.Member(i, p) != on {
		s.flip(i, p)
	}
}

func (s *Set) flip(i int, p Plane) {
	in := &s.in[i]
	v := in.reg[p]
	stale := s.stale&(1<<p) != 0
	if in.eff[p] != absent {
		in.eff[p] = absent
		if !stale && s.top[p] == int32(i)+1 {
			s.stale |= 1 << p
		}
		return
	}
	in.eff[p] = v
	if !stale && (s.top[p] == 0 || v < s.min[p]) {
		s.min[p], s.top[p] = v, int32(i)+1
	}
}

// least returns plane p's minimum over member inputs, and false when the
// plane has no member.
func (s *Set) least(p Plane) (sim.Time, bool) {
	if s.stale&(1<<p) != 0 {
		s.rescan(p)
	}
	return s.min[p], s.top[p] != 0
}

func (s *Set) rescan(p Plane) {
	s.stale &^= 1 << p
	min, top := absent, int32(0)
	for i := range s.in {
		if v := s.in[i].eff[p]; v < min {
			min, top = v, int32(i)+1
		}
	}
	s.min[p], s.top[p] = min, top
}

// Out returns the aggregated barriers: per plane the minimum over member
// inputs, clamped so that it never regresses. A plane with no member holds
// its last output. The clamp is the §4.2 rule that a switch suspends
// updates while a (re)added input's barrier lags.
func (s *Set) Out() (be, c sim.Time) {
	if m, ok := s.least(BE); ok && m > s.out[BE] {
		s.out[BE] = m
	}
	if m, ok := s.least(C); ok && m > s.out[C] {
		s.out[C] = m
	}
	return s.out[BE], s.out[C]
}

// Last returns what Out last returned, without reading the inputs.
func (s *Set) Last() (be, c sim.Time) { return s.out[BE], s.out[C] }
