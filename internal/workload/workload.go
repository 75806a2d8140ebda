// Package workload generates traffic. The Source interface (source.go) is
// the unified abstraction: a deterministic, seedable stream of timestamped
// send intents, with round-robin broadcast, skewed/heavy-tailed synthetic,
// incast-burst and slice-replay implementations (docs/workloads.md). The
// key and value-size generators below (uniform keys, YCSB-style Zipfian
// keys with hot spots, Facebook ETC value sizes, §7.3.1) feed both the
// transaction sources (TxnSource) and the Source implementations as
// adapters.
package workload

import (
	"math"
	"math/rand"
)

// KeyGen produces 64-bit keys.
type KeyGen interface {
	Next() uint64
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

// NewUniform returns a uniform generator over n keys.
func NewUniform(rng *rand.Rand, n uint64) *Uniform { return &Uniform{rng: rng, n: n} }

// Next returns the next key.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// Zipf draws keys from a Zipfian distribution (YCSB uses theta = 0.99),
// producing the hot keys that make contention experiments interesting.
// Implementation: Gray et al.'s rejection-free inverse transform as used by
// YCSB's ZipfianGenerator.
type Zipf struct {
	rng                   *rand.Rand
	n                     uint64
	theta                 float64
	alpha, zetan, eta     float64
	halfPowTheta, zeta2th float64
}

// NewZipf returns a Zipfian generator over n keys with parameter theta.
func NewZipf(rng *rand.Rand, n uint64, theta float64) *Zipf {
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2th = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2th/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Exact for small n; integral approximation for large n keeps
	// construction O(1)-ish.
	if n <= 10000 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	small := zeta(10000, theta)
	// ∫ x^-theta dx from 10000 to n.
	return small + (math.Pow(float64(n), 1-theta)-math.Pow(10000, 1-theta))/(1-theta)
}

// Next returns the next key; key 0 is the hottest.
func (z *Zipf) Next() uint64 { return z.FromU(z.rng.Float64()) }

// FromU maps one uniform draw u in [0,1) to a Zipfian key — the inverse
// transform behind Next, exposed so callers with their own (cheaper) PRNG
// state can share one Zipf table across millions of sessions.
func (z *Zipf) FromU(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// ETCValueSize draws a value size from a simplified Facebook ETC pool
// distribution: mostly tiny values with a heavy tail (Atikoglu et al.,
// SIGMETRICS'12).
func ETCValueSize(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.40:
		return 2 + rng.Intn(9) // tiny: 2-10 B
	case u < 0.90:
		return 16 + rng.Intn(496) // small: 16-512 B
	case u < 0.99:
		return 512 + rng.Intn(3584) // medium: 0.5-4 KB
	default:
		return 4096 + rng.Intn(60*1024) // tail: 4-64 KB
	}
}

// OpKind is a key-value operation type.
type OpKind uint8

const (
	// OpRead reads one key.
	OpRead OpKind = iota
	// OpWrite writes one key.
	OpWrite
)

// Op is one key-value operation in a transaction.
type Op struct {
	Kind  OpKind
	Key   uint64
	Value int // value size in bytes for writes
}

// TxnGen generates transactions of independent KV operations.
type TxnGen struct {
	rng       *rand.Rand
	keys      KeyGen
	opsPerTxn int
	writeFrac float64
}

// NewTxnGen builds a transaction generator: opsPerTxn operations, each a
// write with probability writeFrac.
func NewTxnGen(rng *rand.Rand, keys KeyGen, opsPerTxn int, writeFrac float64) *TxnGen {
	return &TxnGen{rng: rng, keys: keys, opsPerTxn: opsPerTxn, writeFrac: writeFrac}
}

// Next produces one transaction; keys within a transaction are distinct.
func (g *TxnGen) Next() []Op {
	ops := make([]Op, 0, g.opsPerTxn)
	seen := make(map[uint64]bool, g.opsPerTxn)
	for len(ops) < g.opsPerTxn {
		k := g.keys.Next()
		if seen[k] {
			continue
		}
		seen[k] = true
		op := Op{Kind: OpRead, Key: k}
		if g.rng.Float64() < g.writeFrac {
			op.Kind = OpWrite
			op.Value = ETCValueSize(g.rng)
		}
		ops = append(ops, op)
	}
	return ops
}

// ReadOnly reports whether every operation is a read.
func ReadOnly(ops []Op) bool {
	for _, op := range ops {
		if op.Kind == OpWrite {
			return false
		}
	}
	return true
}

// WriteOnly reports whether every operation is a write.
func WriteOnly(ops []Op) bool {
	for _, op := range ops {
		if op.Kind == OpRead {
			return false
		}
	}
	return true
}
