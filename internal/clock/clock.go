// Package clock models PTP-style synchronized host clocks.
//
// 1Pipe stamps every message with its host's monotonic clock and relies on
// clock synchronization only for performance: skew delays barrier
// advancement by up to the skew but never violates correctness (§4.1). This
// model captures exactly that: each host clock has an offset from true
// (simulation) time and a drift rate, re-disciplined every sync interval,
// and its reads are forced non-decreasing.
package clock

import (
	"math/rand"

	"onepipe/internal/sim"
)

// Config parameterizes the clock fleet. The defaults reproduce the paper's
// testbed: PTP sync every 125 ms with 0.3 μs average skew and 1.0 μs at the
// 95th percentile (§7.1).
type Config struct {
	// SyncInterval is the period between clock disciplines.
	SyncInterval sim.Time
	// MaxOffset bounds the residual offset right after a sync.
	MaxOffset sim.Time
	// MaxDriftPPM bounds the oscillator drift rate in parts per million.
	MaxDriftPPM float64
}

// DefaultConfig returns the testbed clock parameters.
func DefaultConfig() Config {
	return Config{
		SyncInterval: 125 * sim.Millisecond,
		MaxOffset:    600 * sim.Nanosecond, // uniform ±0.6us -> mean |skew| 0.3us
		MaxDriftPPM:  2,
	}
}

// Perfect returns a configuration with zero skew and drift, useful for
// isolating protocol latency from clock error in experiments.
func Perfect() Config {
	return Config{SyncInterval: 125 * sim.Millisecond}
}

// Clock is one host's synchronized monotonic clock.
type Clock struct {
	eng      *sim.Engine
	cfg      Config
	rng      *rand.Rand
	offset   float64 // ns offset from true time at last sync
	driftPPM float64
	syncedAt sim.Time // true time of last sync
	lastRead sim.Time // enforces monotonic non-decreasing reads
}

// New creates a clock with randomized initial offset and drift.
func New(eng *sim.Engine, rng *rand.Rand, cfg Config) *Clock {
	c := &Clock{eng: eng, cfg: cfg, rng: rng}
	c.resync()
	return c
}

func (c *Clock) resync() {
	if c.cfg.MaxOffset > 0 {
		c.offset = (c.rng.Float64()*2 - 1) * float64(c.cfg.MaxOffset)
	} else {
		c.offset = 0
	}
	if c.cfg.MaxDriftPPM > 0 {
		c.driftPPM = (c.rng.Float64()*2 - 1) * c.cfg.MaxDriftPPM
	} else {
		c.driftPPM = 0
	}
	c.syncedAt = c.eng.Now()
}

// Now returns the host's current timestamp in nanoseconds. Reads are
// non-decreasing even across a backwards discipline step, matching the
// paper's requirement that host timestamps are monotonic.
func (c *Clock) Now() sim.Time {
	trueNow := c.eng.Now()
	if c.cfg.SyncInterval > 0 && trueNow-c.syncedAt >= c.cfg.SyncInterval {
		c.resync()
	}
	elapsed := float64(trueNow - c.syncedAt)
	t := trueNow + sim.Time(c.offset+elapsed*c.driftPPM/1e6)
	if t < c.lastRead {
		t = c.lastRead
	}
	c.lastRead = t
	return t
}

// AdvanceTo forces all subsequent reads to be at least t. Live
// reconfiguration uses it to push a joining host's clock above the join
// epoch T_join: the host's first timestamps must not fall below the value
// its pre-seeded link registers already promised to the fabric.
func (c *Clock) AdvanceTo(t sim.Time) {
	if t > c.lastRead {
		c.lastRead = t
	}
}

// Skew returns the clock's current deviation from true time; experiments
// use it to report measured skew distributions.
func (c *Clock) Skew() sim.Time {
	return c.Now() - c.eng.Now()
}
