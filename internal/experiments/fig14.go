package experiments

import (
	"onepipe/internal/kvstore"
)

// kvRun deploys and measures one KVS configuration.
func kvRun(sc Scale, n int, mode kvstore.Mode, mut func(*kvstore.Config)) *kvstore.Stats {
	cl := deploy(n, nil, nil)
	cfg := kvstore.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	st := kvstore.New(cl, mode, cfg)
	return st.Run(sc.Warmup, sc.Window)
}

// Fig14a regenerates KVS throughput scalability: uniform and YCSB keys,
// 50% read-only transactions, 2 ops each.
func Fig14a(sc Scale) *Table {
	t := &Table{
		ID: "14a", Title: "KVS throughput per process (M txn/s); 50% read-only, 2 ops/txn",
		Columns: []string{"procs", "1Pipe/Unif", "FaRM/Unif", "NonTX/Unif", "1Pipe/YCSB", "FaRM/YCSB", "NonTX/YCSB"},
	}
	half := func(c *kvstore.Config) { c.ROFrac = 0.5 }
	for _, n := range procSweep(sc, []int{4, 8, 16, 32, 64, 128, 256, 512}) {
		row := []string{f1(float64(n))}
		for _, zipf := range []bool{false, true} {
			for _, mode := range []kvstore.Mode{kvstore.Mode1Pipe, kvstore.ModeFaRM, kvstore.ModeNonTX} {
				s := kvRun(sc, n, mode, func(c *kvstore.Config) {
					half(c)
					c.Zipf = zipf
				})
				row = append(row, fm(s.TxnPerSecPerProc(n)))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe ~flat near NonTX; FaRM below and collapsing on YCSB hot keys")
	return t
}

// Fig14b regenerates KVS latency by class vs. write fraction (YCSB keys).
func Fig14b(sc Scale) *Table {
	t := &Table{
		ID: "14b", Title: "KVS transaction latency (us) vs. write-op percentage (YCSB)",
		Columns: []string{"write%", "1Pipe-RO", "1Pipe-WO", "1Pipe-WR", "FaRM-RO", "FaRM-WO", "FaRM-WR"},
	}
	n := sc.MaxProcs
	if n > 128 {
		n = 128
	}
	for _, wf := range []float64{0.001, 0.01, 0.05, 0.2, 0.5} {
		row := []string{f1(wf * 100)}
		for _, mode := range []kvstore.Mode{kvstore.Mode1Pipe, kvstore.ModeFaRM} {
			s := kvRun(sc, n, mode, func(c *kvstore.Config) {
				c.Zipf = true
				c.WriteFrac = wf
			})
			row = append(row, latOrDash(&s.LatRO), latOrDash(&s.LatWO), latOrDash(&s.LatWR))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe latencies ~flat in write fraction; FaRM RO cheapest at low writes but write latency explodes with contention")
	return t
}

// Fig14c regenerates total KV operation throughput vs. transaction size
// (95% read-only).
func Fig14c(sc Scale) *Table {
	t := &Table{
		ID: "14c", Title: "Total KV ops/s (millions) vs. ops per transaction; 95% read-only",
		Columns: []string{"ops/txn", "1Pipe/Unif", "FaRM/Unif", "NonTX/Unif", "1Pipe/YCSB", "FaRM/YCSB", "NonTX/YCSB"},
	}
	n := sc.MaxProcs
	if n > 128 {
		n = 128
	}
	for _, ops := range []int{2, 4, 8, 16, 32, 64} {
		row := []string{f1(float64(ops))}
		for _, zipf := range []bool{false, true} {
			for _, mode := range []kvstore.Mode{kvstore.Mode1Pipe, kvstore.ModeFaRM, kvstore.ModeNonTX} {
				s := kvRun(sc, n, mode, func(c *kvstore.Config) {
					c.Zipf = zipf
					c.OpsPerTxn = ops
					c.ROFrac = 0.95
					c.Outstanding = 4
				})
				row = append(row, fm(s.OpsPerSec()))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe and NonTX roughly flat in txn size; FaRM/YCSB plummets as abort probability grows with footprint")
	return t
}
