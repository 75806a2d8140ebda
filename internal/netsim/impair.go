package netsim

import (
	"math/rand"

	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Impairment describes the degradations a link applies to packets crossing
// it. The zero value impairs nothing; each field composes independently with
// the others, so a profile can mix, say, jitter with Gilbert-Elliott burst
// loss and a WAN delay class on the same link.
//
// Determinism contract: every random decision an Impairment makes is drawn
// from one of two deterministic streams. In the simulator the uniform Loss
// and Jitter fields consume the network's RNG (seeded from Config.Seed)
// inside transmit — the draw points every golden digest was recorded
// against. All other fields (GE, Duty, ReorderRate, ExtraDelay's reorder
// draw) consume a dedicated per-link RNG seeded from Config.Seed XOR a salt
// derived from the link ID, and consume nothing at all when unset — so
// enabling an advanced impairment on one link never perturbs any other
// link's stream, and a link with only uniform fields never builds that RNG.
// Two runs with equal Config.Seed, equal topology and equal profiles are
// therefore identical.
type Impairment struct {
	// Loss is a uniform per-packet corruption probability.
	Loss float64
	// Jitter is per-packet delay variation (switch processing variance):
	// uniform [0, Jitter/3] per packet plus an occasional (5%) long tail
	// of up to 4×Jitter, FIFO-clamped so the link never reorders.
	Jitter sim.Time
	// ExtraDelay adds a constant one-way delay — an RTT class. A WAN or
	// cross-datacenter link is modeled by ExtraDelay = RTT/2. Constant
	// per link, it preserves FIFO order.
	ExtraDelay sim.Time
	// ReorderRate is the probability a packet is held back by an extra
	// uniform (0, ReorderDelay] that deliberately escapes the FIFO clamp:
	// later packets may overtake it. This models a non-FIFO link and
	// therefore breaks the §4.1 per-link ordering assumption 1Pipe's
	// barrier algebra rests on — useful for studying how the stack
	// degrades, but not part of any validated-fabric profile.
	ReorderRate  float64
	ReorderDelay sim.Time
	// GE enables a Gilbert-Elliott two-state burst-loss chain.
	GE *GEParams
	// Duty enables periodic duty-cycle loss windows.
	Duty *DutyCycle
}

// GEParams parameterizes the Gilbert-Elliott burst-loss model: a two-state
// Markov chain stepped once per packet. Mean burst length is 1/PBadGood
// packets; the stationary bad-state probability is
// PGoodBad/(PGoodBad+PBadGood), so with LossBad=1, LossGood=0 the long-run
// average loss rate is that same ratio.
type GEParams struct {
	PGoodBad float64 // per-packet P(good → bad)
	PBadGood float64 // per-packet P(bad → good)
	LossGood float64 // drop probability in the good state (default 0)
	LossBad  float64 // drop probability in the bad state (0 means 1)
}

// BurstLoss builds GEParams achieving a long-run average loss rate avgLoss
// with mean loss-burst length meanBurst packets (LossBad=1, LossGood=0).
func BurstLoss(avgLoss, meanBurst float64) *GEParams {
	if meanBurst < 1 {
		meanBurst = 1
	}
	pbg := 1 / meanBurst
	pgb := avgLoss * pbg / (1 - avgLoss)
	return &GEParams{PGoodBad: pgb, PBadGood: pbg, LossBad: 1}
}

// DutyCycle drops packets at Rate during periodic On windows separated by
// clean Off windows — a square-wave outage pattern (e.g. a flapping optic).
// Rate 0 means 1 (total loss during the window). Window position is derived
// from simulated/wall time, so it needs no per-packet state.
type DutyCycle struct {
	On, Off sim.Time
	Rate    float64
}

// Profile attaches Impairments to a fabric: per individual link, per link
// class, or as a default for every link (loopbacks included — exclude them
// with a ByKind entry holding a zero Impairment if that is not wanted).
// Resolution is most-specific-wins: ByLink, then ByKind, then Default.
type Profile struct {
	Default *Impairment
	ByKind  map[topology.LinkKind]*Impairment
	ByLink  map[topology.LinkID]*Impairment
}

// For resolves the impairment for one link; nil means unimpaired.
func (p *Profile) For(id topology.LinkID, kind topology.LinkKind) *Impairment {
	if p == nil {
		return nil
	}
	if imp, ok := p.ByLink[id]; ok {
		return imp
	}
	if imp, ok := p.ByKind[kind]; ok {
		return imp
	}
	return p.Default
}

// UniformLoss corrupts packets on every link with probability rate.
func UniformLoss(rate float64) *Profile {
	return &Profile{Default: &Impairment{Loss: rate}}
}

// UniformJitter adds delay variation j to every link.
func UniformJitter(j sim.Time) *Profile {
	return &Profile{Default: &Impairment{Jitter: j}}
}

// Uniform applies one impairment to every link.
func Uniform(imp Impairment) *Profile {
	return &Profile{Default: &imp}
}

// impairSalt derives the per-link RNG seed from the fabric seed.
func impairSalt(seed int64, id topology.LinkID) int64 {
	return seed ^ int64((uint64(id)+1)*0xd1342543de82ef95)
}

// ImpairState is the runtime state of one link's Impairment: the dedicated
// per-link RNG and the Gilbert-Elliott chain position. netsim keeps one per
// impaired link (only transmit touches it). The real-time switch
// (internal/starswitch) uses the exported Drop/Delay methods, which apply
// the whole impairment from this one RNG — it has no network-wide stream to
// preserve.
type ImpairState struct {
	Imp  *Impairment
	seed int64
	// lazy is the per-link RNG, built on first draw: a rand.Rand is ~5 KB,
	// and a uniform-only profile on the simulator never draws from it.
	lazy *rand.Rand
	bad  bool // Gilbert-Elliott chain state
}

// NewImpairState builds runtime state for imp, seeding the per-link RNG
// from the fabric seed and the link identity per the determinism contract.
// A nil or zero imp impairs nothing and yields nil.
func NewImpairState(imp *Impairment, seed int64, id topology.LinkID) *ImpairState {
	if imp == nil || *imp == (Impairment{}) {
		return nil
	}
	return &ImpairState{Imp: imp, seed: impairSalt(seed, id)}
}

func (s *ImpairState) rng() *rand.Rand {
	if s.lazy == nil {
		s.lazy = rand.New(rand.NewSource(s.seed))
	}
	return s.lazy
}

// dropBurst applies the stateful loss models (Gilbert-Elliott, duty-cycle)
// only — the uniform Loss field is drawn elsewhere (from the network's
// RNG inside netsim, or by Drop below at the star switch). Draws nothing when
// neither model is configured.
func (s *ImpairState) dropBurst(now sim.Time) bool {
	if ge := s.Imp.GE; ge != nil {
		if s.bad {
			if s.rng().Float64() < ge.PBadGood {
				s.bad = false
			}
		} else if ge.PGoodBad > 0 && s.rng().Float64() < ge.PGoodBad {
			s.bad = true
		}
		p := ge.LossGood
		if s.bad {
			p = ge.LossBad
			if p == 0 {
				p = 1
			}
		}
		if p >= 1 {
			return true
		}
		if p > 0 && s.rng().Float64() < p {
			return true
		}
	}
	if d := s.Imp.Duty; d != nil && d.On > 0 {
		if sim.Time(int64(now)%int64(d.On+d.Off)) < d.On {
			r := d.Rate
			if r == 0 {
				r = 1
			}
			if r >= 1 || s.rng().Float64() < r {
				return true
			}
		}
	}
	return false
}

// reorderExtra returns the FIFO-escaping delay for this packet (0 if the
// packet is not reordered). Draws only when ReorderRate is set.
func (s *ImpairState) reorderExtra() sim.Time {
	rr := s.Imp.ReorderRate
	if rr <= 0 || s.rng().Float64() >= rr {
		return 0
	}
	if d := s.Imp.ReorderDelay; d > 0 {
		return sim.Time(1 + s.rng().Int63n(int64(d)))
	}
	return 0
}

// Drop decides whether to drop a packet, applying the full impairment
// (uniform Loss plus the burst models) from the per-link RNG. Used by the
// star switch (internal/starswitch); netsim draws the uniform component from
// the network's RNG instead.
func (s *ImpairState) Drop(now sim.Time) bool {
	if s.Imp.Loss > 0 && s.rng().Float64() < s.Imp.Loss {
		return true
	}
	return s.dropBurst(now)
}

// Delay returns the extra one-way delay for a packet through the star
// switch (internal/starswitch): constant ExtraDelay, plain uniform
// [0, Jitter) jitter, and — with probability ReorderRate — the reorder
// hold-back. The star's adapter (internal/udpnet) holds each delayed
// datagram on its own timer, so any jitter can already reorder; the
// distinction the simulator preserves (FIFO-clamped jitter vs escaping
// reorder) collapses there into one extra delay.
func (s *ImpairState) Delay(now sim.Time) sim.Time {
	extra := s.Imp.ExtraDelay
	if j := s.Imp.Jitter; j > 0 {
		extra += sim.Time(s.rng().Int63n(int64(j)))
	}
	extra += s.reorderExtra()
	return extra
}
