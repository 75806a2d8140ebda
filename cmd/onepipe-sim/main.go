// Command onepipe-sim runs a configurable 1Pipe data center simulation and
// prints ordering, latency and overhead statistics — a scriptable way to
// poke at the system outside the canned experiments.
//
// Example:
//
//	onepipe-sim -hosts 32 -procs 2 -mode chip -duration 5ms -load 2e6 -loss 1e-5
package main

import (
	"flag"
	"fmt"
	"os"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
)

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

	var topo topology.ClosConfig
	switch {
	case *hosts <= 8:
		topo = topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: *hosts, SpinesPerPod: 1, Cores: 1}
	case *hosts <= 16:
		topo = topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: *hosts / 2, SpinesPerPod: 2, Cores: 1}
	default:
		topo = topology.Testbed()
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

	var lat stats.Sample
	delivered := 0
	violations := 0
	lastTS := make([]sim.Time, n)
	for i, p := range cl.Procs {
		i := i
		p.OnDeliver = func(d core.Delivery) {
			delivered++
			if d.TS < lastTS[i] {
				violations++
			}
			lastTS[i] = d.TS
			if sent, ok := d.Data.(sim.Time); ok {
				lat.Add(float64(eng.Now()-sent) / 1000)
			}
		}
	}
	gap := sim.Time(1e9 / *load)
	for pi := range cl.Procs {
		pi := pi
		k := 0
		// Spread send phases across the tick so co-located processes do
		// not burst in lockstep.
		phase := sim.Time(int64(pi) * int64(gap) / int64(n))
		sim.NewTicker(eng, gap, phase, func() {
			k++
			dst := netsim.ProcID((pi + k) % n)
			if int(dst) == pi {
				dst = netsim.ProcID((pi + 1) % n)
			}
			m := []core.Message{{Dst: dst, Data: eng.Now(), Size: 64}}
			if *reliable {
				cl.Procs[pi].SendReliable(m)
			} else {
				cl.Procs[pi].Send(m)
			}
		})
	}
	dur := sim.Time(*durMs * float64(sim.Millisecond))
	eng.RunFor(dur)

	total := cl.TotalStats()
	fmt.Printf("1Pipe simulation: %d hosts x %d procs, mode=%s, %.2fms simulated (%d events)\n",
		len(net.G.Hosts), *procs, mode, dur.Seconds()*1e3, eng.Executed)
	fmt.Printf("  delivered        %d msgs (%.2f M msg/s/proc)\n",
		delivered, float64(delivered)/dur.Seconds()/float64(n)/1e6)
	fmt.Printf("  delivery latency %s us\n", lat.Summary())
	fmt.Printf("  order violations %d\n", violations)
	fmt.Printf("  send failures    %d, retransmits %d, naks %d, dups %d\n",
		total.MsgsFailed, total.PktsRetx, total.Naks, total.DupPkts)
	fmt.Printf("  beacons          %d host + %d fabric (%.3f%% of bytes)\n",
		total.Beacons, net.Stats.PktsByKind[netsim.KindBeacon]-total.Beacons,
		100*net.Stats.BeaconBandwidthFraction())
	fmt.Printf("  max reorder buf  %.1f KB\n", float64(total.MaxBufferBytes)/1024)
	if violations > 0 {
		os.Exit(1)
	}
}
