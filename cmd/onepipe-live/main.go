// Command onepipe-live runs a complete 1Pipe fabric in real time over real
// UDP sockets on loopback (internal/udpnet): N host endpoints and a software
// switch (internal/starswitch) speaking the 48-bit wire format, running the
// same lib1pipe state machines as the simulator. Concurrent scatterers
// broadcast, then a total-order verification pass checks every receiver —
// optionally with loss injected at the switch to exercise reliable 1Pipe's
// retransmission and commit machinery.
//
//	onepipe-live -hosts 4 -msgs 20 -loss 0.02 -reliable
//	onepipe-live -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/udpnet"
)

func main() {
	hosts := flag.Int("hosts", 4, "number of host endpoints")
	msgs := flag.Int("msgs", 20, "broadcasts per process")
	loss := flag.Float64("loss", 0, "loss probability injected at the switch")
	reliable := flag.Bool("reliable", false, "use reliable 1Pipe")
	trace := flag.Bool("trace", false, "record per-stage lifecycle latencies and print the breakdown")
	debug := flag.String("debug", "", "serve /debug/vars, /debug/pprof and /debug/onepipe on this address (implies -trace)")
	flag.Parse()

	tracing := *trace || *debug != ""
	cfg := udpnet.DefaultConfig(*hosts, 1)
	cfg.Impair, cfg.Trace, cfg.DebugAddr = &netsim.Impairment{Loss: *loss}, tracing, *debug
	c, err := udpnet.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()
	n := c.NumProcs()
	fmt.Printf("UDP 1Pipe: %d host sockets + switch on loopback, loss=%.1f%%, reliable=%v\n\n", n, *loss*100, *reliable)
	if addr := c.DebugAddr(); addr != "" {
		fmt.Printf("debug server on http://%s/debug/onepipe\n\n", addr)
	}

	type rec struct {
		ts   sim.Time
		src  netsim.ProcID
		body string
	}
	var mu sync.Mutex
	logs := make([][]rec, n)
	for i := 0; i < n; i++ {
		i := i
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			mu.Lock()
			logs[i] = append(logs[i], rec{d.TS, d.Src, string(d.Data.([]byte))})
			mu.Unlock()
		})
	}

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < *msgs; k++ {
				var batch []core.Message
				for q := 0; q < n; q++ {
					if q != p {
						batch = append(batch, core.Message{
							Dst: netsim.ProcID(q), Data: []byte(fmt.Sprintf("p%d/m%d", p, k)), Size: 16,
						})
					}
				}
				c.Proc(p).SendOpts(batch, core.SendOptions{Reliable: *reliable})
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	time.Sleep(500 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	total, sorted := 0, true
	for i := range logs {
		total += len(logs[i])
		if !sort.SliceIsSorted(logs[i], func(a, b int) bool {
			x, y := logs[i][a], logs[i][b]
			if x.ts != y.ts {
				return x.ts < y.ts
			}
			return x.src < y.src
		}) {
			sorted = false
		}
	}
	want := n * (n - 1) * *msgs
	fmt.Printf("delivered %d/%d messages; per-receiver total order intact: %v\n", total, want, sorted)
	st := c.Switch.Stats()
	fmt.Printf("switch forwarded %d packets, dropped %d, suppressed %d beacons\n",
		st.Forwarded, st.Dropped, st.BeaconsSuppressed)
	if tracing {
		fmt.Println("\nper-stage latency breakdown (us):")
		fmt.Printf("  %-16s %8s %9s %9s %9s %9s\n", "span", "count", "mean", "p50", "p95", "p99")
		for _, s := range obs.Summarize(obs.Merge(c.Traces()...)) {
			fmt.Printf("  %-16s %8d %9.1f %9.1f %9.1f %9.1f\n",
				s.Span, s.Count, s.MeanU, s.P50U, s.P95U, s.P99U)
		}
	}
	if *reliable && total != want {
		fmt.Println("WARNING: reliable mode should deliver everything")
		os.Exit(1)
	}
	if !sorted {
		os.Exit(1)
	}
}
