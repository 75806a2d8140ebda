// Command onepipe-sim runs a configurable 1Pipe data center simulation and
// prints latency and overhead statistics plus the delivery-contract verdict
// of internal/oracle over every send and delivery (exit status 1 on a
// violation) — a scriptable way to poke at the system outside the canned
// experiments.
//
// Example:
//
//	onepipe-sim -hosts 32 -procs 2 -mode chip -duration 5ms -load 2e6 -loss 1e-5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
)

// settle is how long the run continues after the last send, so that the
// contract check sees every reliable scattering resolved.
const settle = 2 * sim.Millisecond

func main() {
	hosts := flag.Int("hosts", 32, "number of hosts (8, 16 or 32)")
	procs := flag.Int("procs", 1, "processes per host")
	modeS := flag.String("mode", "chip", "switch incarnation: chip|switchcpu|hostdelegate")
	durMs := flag.Float64("duration", 2, "simulated duration (ms)")
	load := flag.Float64("load", 1e6, "offered load per process (msg/s)")
	loss := flag.Float64("loss", 0, "per-link corruption probability")
	beaconUs := flag.Float64("beacon", 3, "beacon interval (us)")
	reliable := flag.Bool("reliable", false, "use reliable 1Pipe")
	noack := flag.Bool("noack", false, "disable best-effort loss-detection ACKs (throughput mode)")
	jitterUs := flag.Float64("jitter", 0, "per-link bursty delay variance (us)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	topo, err := fabric(*hosts, *procs, *durMs, *load, *beaconUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var mode netsim.Mode
	switch *modeS {
	case "chip":
		mode = netsim.ModeChip
	case "switchcpu":
		mode = netsim.ModeSwitchCPU
	case "hostdelegate":
		mode = netsim.ModeHostDelegate
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeS)
		os.Exit(2)
	}

	ncfg := netsim.DefaultConfig(topo, *procs)
	ncfg.Mode = mode
	ncfg.Impair = netsim.Uniform(netsim.Impairment{Loss: *loss, Jitter: sim.Time(*jitterUs * 1000)})
	ncfg.BeaconInterval = sim.Time(*beaconUs * 1000)
	ncfg.Seed = *seed
	net := netsim.New(ncfg)
	ecfg := core.DefaultConfig()
	ecfg.DisableBEAck = *noack
	cl := core.Deploy(net, ecfg)
	eng := net.Eng
	n := net.NumProcs()

	// Every send and delivery goes into one oracle.Log, checked against the
	// delivery contract at the end (order per receiver and across
	// receivers, and all-or-nothing reliable scatterings). A payload names
	// its scattering and carries its send time for the latency sample.
	type payload struct {
		id     oracle.ID
		sentAt sim.Time
	}
	dur := sim.Time(*durMs * float64(sim.Millisecond))
	var lat stats.Sample
	delivered := 0
	log := oracle.Log{
		Mode:       oracle.Mode(ecfg.Mode),
		Deliveries: make([][]oracle.Delivery, n),
		SendFails:  make(map[oracle.ID]map[netsim.ProcID]bool),
	}
	for i, p := range cl.Procs {
		i := i
		p.OnDeliver = func(d core.Delivery) {
			m := d.Data.(payload)
			log.Deliveries[i] = append(log.Deliveries[i], oracle.Delivery{TS: d.TS, Src: d.Src, ID: m.id, Reliable: d.Reliable})
			if eng.Now() <= dur {
				delivered++
				lat.Add(float64(eng.Now()-m.sentAt) / 1000)
			}
		}
		p.OnSendFail = func(sf core.SendFailure) {
			id := sf.Data.(payload).id
			if log.SendFails[id] == nil {
				log.SendFails[id] = make(map[netsim.ProcID]bool)
			}
			log.SendFails[id][sf.Dst] = true
		}
	}
	gap := sim.Time(1e9 / *load)
	opts := core.SendOptions{Reliable: *reliable}
	tickers := make([]*sim.Ticker, 0, n)
	for pi := range cl.Procs {
		pi := pi
		k := 0
		// Spread send phases across the tick so co-located processes do
		// not burst in lockstep.
		phase := sim.Time(int64(pi) * int64(gap) / int64(n))
		tickers = append(tickers, sim.NewTicker(eng, gap, phase, func() {
			k++
			dst := netsim.ProcID((pi + k) % n)
			if int(dst) == pi {
				dst = netsim.ProcID((pi + 1) % n)
			}
			s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(pi), Seq: int32(k)}, Src: netsim.ProcID(pi),
				Dsts: []netsim.ProcID{dst}, Reliable: *reliable, At: eng.Now()}
			m := []core.Message{{Dst: dst, Data: payload{s.ID, eng.Now()}, Size: 64}}
			s.Refused = cl.Procs[pi].SendOpts(m, opts) != nil
			log.Sends = append(log.Sends, s)
		}))
	}
	eng.RunFor(dur)
	events := eng.Executed
	// Stop sending, then let what is in flight settle so that every
	// reliable scattering has been delivered or reported failed.
	for _, tk := range tickers {
		tk.Stop()
	}
	eng.RunFor(settle)
	vios := oracle.Check(&log)

	total := cl.TotalStats()
	fmt.Printf("1Pipe simulation: %d hosts x %d procs, mode=%s, %.2fms simulated (%d events)\n",
		len(net.G.Hosts), *procs, mode, dur.Seconds()*1e3, events)
	fmt.Printf("  delivered        %d msgs (%.2f M msg/s/proc)\n",
		delivered, float64(delivered)/dur.Seconds()/float64(n)/1e6)
	fmt.Printf("  delivery latency %s us\n", lat.Summary())
	fmt.Printf("  contract         %d violations\n", len(vios))
	for _, v := range vios {
		fmt.Println("    violation:", v)
	}
	fmt.Printf("  send failures    %d, retransmits %d, naks %d, dups %d\n",
		total.MsgsFailed, total.PktsRetx, total.Naks, total.DupPkts)
	fmt.Printf("  beacons          %d host + %d fabric (%.3f%% of bytes)\n",
		total.Beacons, net.Stats.PktsByKind[netsim.KindBeacon]-total.Beacons,
		100*net.Stats.BeaconBandwidthFraction())
	fmt.Printf("  max reorder buf  %.1f KB\n", float64(total.MaxBufferBytes)/1024)
	if len(vios) > 0 {
		os.Exit(1)
	}
}

// fabric checks the flags that size the run and returns the Clos fabric
// -hosts builds. Each of -duration, -load and -beacon sets an interval that
// must come to at least 1 ns and fit a sim.Time: a zero, negative or
// non-finite one gives the run no end. A -hosts the fabric shapes cannot
// build exactly would silently simulate another host count.
func fabric(hosts, procs int, durMs, load, beaconUs float64) (topology.ClosConfig, error) {
	if procs < 1 {
		return topology.ClosConfig{}, fmt.Errorf("-procs %d: want at least 1", procs)
	}
	for _, f := range []struct {
		flag  string
		v, ns float64 // the flag's value and the interval it sets
	}{{"duration", durMs, durMs * 1e6}, {"load", load, 1e9 / load}, {"beacon", beaconUs, beaconUs * 1e3}} {
		if !(f.ns >= 1 && f.ns < math.MaxInt64) {
			return topology.ClosConfig{}, fmt.Errorf("-%s %g: sets a %g ns interval, want a finite one of at least 1 ns", f.flag, f.v, f.ns)
		}
	}
	var topo topology.ClosConfig
	switch {
	case hosts <= 8:
		topo = topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: hosts, SpinesPerPod: 1, Cores: 1}
	case hosts <= 16:
		topo = topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: hosts / 2, SpinesPerPod: 2, Cores: 1}
	default:
		topo = topology.Testbed()
	}
	if topo.Validate() != nil || topo.NumHosts() != hosts {
		return topology.ClosConfig{}, fmt.Errorf("-hosts %d: the fabric holds 1 to 8 hosts, an even count up to 16, or 32", hosts)
	}
	return topo, nil
}
