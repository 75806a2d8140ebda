// Command onepipe-live runs a complete 1Pipe fabric in real time over real
// UDP sockets on loopback (internal/udpnet): N host endpoints and a software
// switch (internal/starswitch) speaking the 48-bit wire format, running the
// same lib1pipe state machines as the simulator. Concurrent scatterers
// broadcast, then the delivery-contract oracle checks every receiver —
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
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/oracle"
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

	// Each payload names its scattering, "p<sender>/m<seq>", for the oracle;
	// this program writes every payload, so the parse cannot fail.
	var mu sync.Mutex
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, n)}
	for i := 0; i < n; i++ {
		c.Proc(i).OnDeliver(func(d core.Delivery) {
			var id oracle.ID
			fmt.Sscanf(string(d.Data.([]byte)), "p%d/m%d", &id.Src, &id.Seq)
			mu.Lock()
			log.Deliveries[i] = append(log.Deliveries[i], oracle.Delivery{TS: d.TS, Src: d.Src, ID: id, Reliable: d.Reliable})
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
				s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(p), Seq: int32(k)}, Src: netsim.ProcID(p), Reliable: *reliable}
				var batch []core.Message
				for q := 0; q < n; q++ {
					if q != p {
						batch = append(batch, core.Message{
							Dst: netsim.ProcID(q), Data: []byte(fmt.Sprintf("p%d/m%d", p, k)), Size: 16,
						})
						s.Dsts = append(s.Dsts, netsim.ProcID(q))
					}
				}
				s.Refused = c.Proc(p).SendOpts(batch, core.SendOptions{Reliable: *reliable}) != nil
				mu.Lock()
				log.Sends = append(log.Sends, s)
				mu.Unlock()
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	time.Sleep(500 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	total, want, vios := log.TotalDeliveries(), n*(n-1)**msgs, oracle.Check(&log)
	fmt.Printf("delivered %d/%d messages; delivery contract upheld: %v\n", total, want, len(vios) == 0)
	for _, v := range vios {
		fmt.Println("  violation:", v)
	}
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
	if len(vios) > 0 {
		os.Exit(1)
	}
}
