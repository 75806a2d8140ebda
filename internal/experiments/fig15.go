package experiments

import (
	"fmt"

	"onepipe/internal/netsim"
	"onepipe/internal/tpcc"
)

func tpccRun(sc Scale, n int, mode tpcc.Mode, loss float64) *tpcc.Stats {
	cl := deploy(n, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(loss) }, nil)
	b := tpcc.New(cl, mode)
	return b.Run(sc.Warmup, sc.Window)
}

// Fig15a regenerates TPC-C (New-Order + Payment) throughput scalability.
func Fig15a(sc Scale) *Table {
	t := &Table{
		ID: "15a", Title: "TPC-C throughput (M txn/s) vs. number of processes; 4 warehouses, 3 replicas",
		Columns: []string{"procs", "1Pipe", "Lock", "OCC", "NonTX"},
	}
	for _, n := range procSweep(sc, []int{4, 8, 16, 32, 64, 128, 256, 512}) {
		row := []string{f1(float64(n))}
		for _, mode := range []tpcc.Mode{tpcc.Mode1Pipe, tpcc.ModeLock, tpcc.ModeOCC, tpcc.ModeNonTX} {
			s := tpccRun(sc, n, mode, 0)
			row = append(row, fm(s.TxnPerSec()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe scales near NonTX; Lock and OCC peak early and decline (4 hot warehouse rows)")
	return t
}

// Fig15b regenerates TPC-C throughput under packet loss (64 processes).
func Fig15b(sc Scale) *Table {
	t := &Table{
		ID: "15b", Title: "TPC-C throughput (M txn/s) vs. packet loss probability",
		Columns: []string{"loss", "1Pipe", "Lock", "OCC", "NonTX"},
	}
	n := 64
	if n > sc.MaxProcs {
		n = sc.MaxProcs
	}
	for _, loss := range []float64{0, 1e-5, 1e-4, 1e-3, 1e-2} {
		row := []string{fmt.Sprintf("%.0e", loss)}
		for _, mode := range []tpcc.Mode{tpcc.Mode1Pipe, tpcc.ModeLock, tpcc.ModeOCC, tpcc.ModeNonTX} {
			s := tpccRun(sc, n, mode, loss)
			row = append(row, fm(s.TxnPerSec()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe throughput barely moves with loss (new txns flow during retransmissions); Lock/OCC degrade as lock hold times inflate")
	return t
}
