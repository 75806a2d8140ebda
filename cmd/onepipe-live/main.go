// Command onepipe-live runs a complete 1Pipe fabric in real time on either
// live substrate: over real UDP sockets on loopback (-fabric udp,
// internal/udpnet: N host endpoints and a software switch speaking the
// 48-bit wire format) or over in-process channels (-fabric chan,
// internal/livenet). Both run the same lib1pipe state machines around the
// same switch core; concurrent scatterers broadcast, then a total-order
// verification pass checks every receiver — optionally with loss injected at
// the switch to exercise reliable 1Pipe's retransmission and commit
// machinery.
//
//	onepipe-live -hosts 4 -msgs 20 -loss 0.02 -reliable
//	onepipe-live -fabric chan -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/livenet"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
	"onepipe/internal/udpnet"
)

// fabric is what the runner needs from a live substrate.
type fabric struct {
	name        string
	numProcs    int
	debugAddr   string
	onDeliver   func(p int, fn func(core.Delivery))
	send        func(p int, msgs []core.Message, o core.SendOptions) error
	traces      func() []*obs.Trace
	switchStats func() starswitch.Stats
	close       func()
}

func startUDP(hosts int, imp *netsim.Impairment, trace bool, debug string) (fabric, error) {
	cfg := udpnet.DefaultConfig(hosts, 1)
	cfg.Impair, cfg.Trace, cfg.DebugAddr = imp, trace, debug
	c, err := udpnet.Start(cfg)
	if err != nil {
		return fabric{}, err
	}
	return fabric{
		name:        fmt.Sprintf("UDP 1Pipe: %d host sockets + switch on loopback", c.NumProcs()),
		numProcs:    c.NumProcs(),
		debugAddr:   c.DebugAddr(),
		onDeliver:   func(p int, fn func(core.Delivery)) { c.Proc(p).OnDeliver(fn) },
		send:        func(p int, m []core.Message, o core.SendOptions) error { return c.Proc(p).SendOpts(m, o) },
		traces:      c.Traces,
		switchStats: c.Switch.Stats,
		close:       c.Close,
	}, nil
}

func startChan(hosts int, imp *netsim.Impairment, trace bool, debug string) fabric {
	cfg := livenet.DefaultConfig(hosts, 1)
	cfg.Impair, cfg.Trace, cfg.DebugAddr = imp, trace, debug
	n := livenet.New(cfg)
	return fabric{
		name:        fmt.Sprintf("in-process 1Pipe: %d hosts + switch on one event loop", n.NumProcs()),
		numProcs:    n.NumProcs(),
		debugAddr:   n.DebugAddr(),
		onDeliver:   func(p int, fn func(core.Delivery)) { n.Do(func() { n.Proc(p).OnDeliver = fn }) },
		send:        n.SendOpts,
		traces:      n.Traces,
		switchStats: n.SwitchStats,
		close:       n.Stop,
	}
}

func main() {
	kind := flag.String("fabric", "udp", "live substrate: udp (real sockets on loopback) or chan (in-process channels)")
	hosts := flag.Int("hosts", 4, "number of host endpoints")
	msgs := flag.Int("msgs", 20, "broadcasts per process")
	loss := flag.Float64("loss", 0, "loss probability injected at the switch")
	reliable := flag.Bool("reliable", false, "use reliable 1Pipe")
	trace := flag.Bool("trace", false, "record per-stage lifecycle latencies and print the breakdown")
	debug := flag.String("debug", "", "serve /debug/vars, /debug/pprof and /debug/onepipe on this address (implies -trace)")
	flag.Parse()

	imp := &netsim.Impairment{Loss: *loss}
	tracing := *trace || *debug != ""
	var c fabric
	switch *kind {
	case "udp":
		var err error
		if c, err = startUDP(*hosts, imp, tracing, *debug); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "chan":
		c = startChan(*hosts, imp, tracing, *debug)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fabric %q (want udp or chan)\n", *kind)
		os.Exit(2)
	}
	defer c.close()
	n := c.numProcs
	fmt.Printf("%s, loss=%.1f%%, reliable=%v\n\n", c.name, *loss*100, *reliable)
	if c.debugAddr != "" {
		fmt.Printf("debug server on http://%s/debug/onepipe\n\n", c.debugAddr)
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
		c.onDeliver(i, func(d core.Delivery) {
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
				c.send(p, batch, core.SendOptions{Reliable: *reliable})
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
	st := c.switchStats()
	fmt.Printf("switch forwarded %d packets, dropped %d, suppressed %d beacons\n",
		st.Forwarded, st.Dropped, st.BeaconsSuppressed)
	if tracing {
		fmt.Println("\nper-stage latency breakdown (us):")
		fmt.Printf("  %-16s %8s %9s %9s %9s %9s\n", "span", "count", "mean", "p50", "p95", "p99")
		for _, s := range obs.Summarize(obs.Merge(c.traces()...)) {
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
