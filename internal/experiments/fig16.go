package experiments

import (
	"fmt"

	"onepipe/internal/core"
	"onepipe/internal/hashtable"
	"onepipe/internal/netsim"
	"onepipe/internal/replication"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func htRun(sc Scale, d hashtable.Design, mix hashtable.OpMix, replicas int) *hashtable.Stats {
	ncfg := netsim.DefaultConfig(topology.Testbed(), 1)
	ncfg.BeaconInterval = 1 * sim.Microsecond // latency-sensitive data structure
	cl := core.Deploy(netsim.New(ncfg), core.DefaultConfig())
	return hashtable.New(cl, d, mix, replicas).Run(sc.Warmup, sc.Window)
}

// Fig16 regenerates the replicated remote hash table comparison.
func Fig16(sc Scale) *Table {
	t := &Table{
		ID: "16", Title: "Remote hash table per-client throughput (M op/s) vs. replicas",
		Columns: []string{"replicas", "1Pipe/insert", "base/insert", "1Pipe/lookup", "base/lookup"},
	}
	for _, reps := range []int{1, 2, 3, 4} {
		row := []string{f1(float64(reps))}
		for _, mix := range []hashtable.OpMix{hashtable.MixInsert, hashtable.MixLookup} {
			for _, d := range []hashtable.Design{hashtable.DesignOnePipe, hashtable.DesignBase} {
				s := htRun(sc, d, mix, reps)
				row = append(row, fm(s.OpsPerClientPerSec(hashtable.Clients)*1e0))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: 1Pipe insert beats the fenced baseline and the gap widens with replicas (leader CPU replication); 1Pipe lookups hold steady with replicas while leader-bound lookups do not scale")
	return t
}

// Ceph regenerates the §7.3.4 storage replication latency comparison.
func Ceph(sc Scale) *Table {
	t := &Table{
		ID: "ceph", Title: "4KB replicated write latency (us), 3 replicas, idle system",
		Columns: []string{"design", "mean", "stddev", "p5", "p95"},
	}
	ncfg := netsim.DefaultConfig(topology.Testbed(), 1)
	cl1 := core.Deploy(netsim.New(ncfg), core.DefaultConfig())
	g1 := replication.NewGroup(cl1, []netsim.ProcID{5, 6, 7}, replication.CephConfig())
	c := g1.Client(0)
	eng1 := cl1.Net.Eng
	writes := 100
	for i := 0; i < writes; i++ {
		eng1.At(sim.Time(100+i*400)*sim.Microsecond, func() { c.Append("obj", 4096, nil) })
	}
	eng1.RunFor(sim.Time(writes)*400*sim.Microsecond + 10*sim.Millisecond)

	ncfg2 := netsim.DefaultConfig(topology.Testbed(), 1)
	cl2 := core.Deploy(netsim.New(ncfg2), core.DefaultConfig())
	g2 := replication.NewCephGroup(cl2, 5, []netsim.ProcID{6, 7}, replication.CephConfig())
	eng2 := cl2.Net.Eng
	for i := 0; i < writes; i++ {
		eng2.At(sim.Time(100+i*400)*sim.Microsecond, func() { g2.Write(0, 4096, nil) })
	}
	eng2.RunFor(sim.Time(writes)*400*sim.Microsecond + 10*sim.Millisecond)

	add := func(name string, s *replication.Stats) {
		t.AddRow(name, f1(s.Latency.Mean()), f1(s.Latency.Stddev()),
			f1(s.Latency.Percentile(5)), f1(s.Latency.Percentile(95)))
	}
	add("1Pipe (1 RTT + parallel disk)", &g1.Stats)
	add("primary-backup chain (Ceph-style)", &g2.Stats)
	red := 1 - g1.Stats.Latency.Mean()/g2.Stats.Latency.Mean()
	t.Notes = append(t.Notes,
		fmt.Sprintf("latency reduction %.0f%% (paper: 64%%, 160±54us -> 58±28us)", red*100))
	return t
}

// OutOfOrder regenerates the §4.1 motivation number: the fraction of
// out-of-timestamp-order arrivals at one receiver fed by 8 senders (the
// paper measured 57%).
func OutOfOrder(sc Scale) *Table {
	t := &Table{
		ID: "ooo", Title: "Out-of-order arrival fraction at one receiver",
		Columns: []string{"senders", "ooo_fraction"},
	}
	for _, senders := range []int{2, 4, 8, 16} {
		netN := netsim.New(netsim.DefaultConfig(topology.Testbed(), 1))
		arr := countArrivals(netN, 31)
		driveRaw(netN, incastStreams(senders, 31, 200*sim.Nanosecond, 1024))
		netN.Eng.RunFor(2 * sim.Millisecond)
		t.AddRow(f1(float64(senders)), f2(arr.oooShare()))
	}
	t.Notes = append(t.Notes, "paper: 57% with 8 senders — dropping out-of-order arrivals is untenable, hence barriers")
	return t
}
