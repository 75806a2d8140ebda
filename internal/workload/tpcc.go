package workload

import "math/rand"

// ShardOps is one transaction's operations against one shard.
type ShardOps struct {
	Shard int
	Ops   []Op
}

// TPC-C record-key layout inside a warehouse shard (the local half of
// TPCCKey). The warehouse row is the hot contention point: Payment writes
// it, New-Order reads it.
const (
	TPCCWarehouseRow = 0      // the hot row
	TPCCDistrictBase = 1      // 10 districts
	TPCCCustomerBase = 100    // 3000 customers
	TPCCStockBase    = 10_000 // 100k stock items
	TPCCOrderBase    = 200_000
)

// TPCCKey packs a warehouse and a local record id into one key.
func TPCCKey(w int, local int) uint64 { return uint64(w)<<32 | uint64(local) }

// TPCCGen generates the two most frequent TPC-C transactions (New-Order and
// Payment, split evenly — the 90% of TPC-C the paper benchmarks, §7.3.2) —
// or, with probability SnapshotFrac, a read-only snapshot touching every
// warehouse. The RNG is caller-owned: a benchmark node that interleaves
// other draws (retry backoff) on the same stream keeps its historical draw
// order by sharing the RNG with the generator.
type TPCCGen struct {
	rng          *rand.Rand
	warehouses   int
	snapshotFrac float64
}

// NewTPCCGen builds the generator.
func NewTPCCGen(rng *rand.Rand, warehouses int, snapshotFrac float64) *TPCCGen {
	return &TPCCGen{rng: rng, warehouses: warehouses, snapshotFrac: snapshotFrac}
}

// SetSnapshotFrac adjusts the snapshot mix on the fly (benchmarks tune it
// between construction and the run). Draw order is unaffected: the frac
// gates a draw only while nonzero, exactly as at construction time.
func (g *TPCCGen) SetSnapshotFrac(f float64) { g.snapshotFrac = f }

// Next draws one transaction. A snapshot is all-reads across every
// warehouse; Payment is recognizable as the only kind that writes the
// warehouse row (local key TPCCWarehouseRow).
func (g *TPCCGen) Next() []ShardOps {
	if g.snapshotFrac > 0 && g.rng.Float64() < g.snapshotFrac {
		shards := make([]ShardOps, 0, g.warehouses)
		for w := 0; w < g.warehouses; w++ {
			shards = append(shards, ShardOps{Shard: w, Ops: []Op{
				{Kind: OpRead, Key: TPCCKey(w, TPCCWarehouseRow)},
			}})
		}
		return shards
	}
	w := g.rng.Intn(g.warehouses)
	d := g.rng.Intn(10)
	if g.rng.Intn(2) == 0 {
		// New-Order: read the hot row, write district + order, 5-15 stock
		// item writes, 1% touching a remote warehouse.
		ops := []Op{
			{Kind: OpRead, Key: TPCCKey(w, TPCCWarehouseRow)},
			{Kind: OpWrite, Key: TPCCKey(w, TPCCDistrictBase+d), Value: 16},
			{Kind: OpWrite, Key: TPCCKey(w, TPCCOrderBase+g.rng.Intn(1<<20)), Value: 64},
		}
		items := 5 + g.rng.Intn(11)
		remote := -1
		if g.rng.Intn(100) == 0 && g.warehouses > 1 {
			remote = (w + 1 + g.rng.Intn(g.warehouses-1)) % g.warehouses
		}
		var remoteOps []Op
		for i := 0; i < items; i++ {
			item := g.rng.Intn(100_000)
			if remote >= 0 && i == 0 {
				remoteOps = append(remoteOps, Op{Kind: OpWrite, Key: TPCCKey(remote, TPCCStockBase+item), Value: 16})
				continue
			}
			ops = append(ops, Op{Kind: OpWrite, Key: TPCCKey(w, TPCCStockBase+item), Value: 16})
		}
		shards := []ShardOps{{Shard: w, Ops: ops}}
		if len(remoteOps) > 0 {
			shards = append(shards, ShardOps{Shard: remote, Ops: remoteOps})
		}
		return shards
	}
	// Payment: write the hot warehouse row, a district and a customer.
	c := g.rng.Intn(3000)
	return []ShardOps{{Shard: w, Ops: []Op{
		{Kind: OpWrite, Key: TPCCKey(w, TPCCWarehouseRow), Value: 8}, // hot row
		{Kind: OpWrite, Key: TPCCKey(w, TPCCDistrictBase+d), Value: 8},
		{Kind: OpWrite, Key: TPCCKey(w, TPCCCustomerBase+c), Value: 16},
	}}}
}
