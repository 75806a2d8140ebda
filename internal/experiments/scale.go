package experiments

import (
	"fmt"
	"time"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// scaleTopo is the 1024-host fat-tree of the scale figure.
var scaleTopo = topology.ClosConfig{Pods: 8, RacksPerPod: 8, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8}

// FabricScale drives a packet-level all-to-all workload on a 1024-host
// fat-tree (8 pods x 8 racks x 16 hosts) and reports how fast the event
// engine executes it. The workload is fault-free and rng-free on the data
// path (flow ECMP, no loss, no jitter), so events, delivered and mean
// latency are the same on every run.
//
// Unlike the paper figures this is a simulator scaling experiment, not a
// 1Pipe result: it shows the engine's rate at a fabric size in §7.2's
// projection territory.
func FabricScale(sc Scale) *Table {
	window := sc.Window
	t := &Table{
		ID:      "scale",
		Title:   fmt.Sprintf("Simulator scale, %d-host fat-tree, %v window", scaleTopo.NumHosts(), window),
		Columns: []string{"hosts", "wall_s", "events", "Mev/s", "delivered", "avg_lat_us"},
	}
	t.Notes = append(t.Notes,
		"deterministic workload: events, delivered and avg_lat_us are the same on every run")
	wall, events, delivered, avgLatUs := FabricScaleOnce(window)
	t.AddRow(
		fmt.Sprintf("%d", scaleTopo.NumHosts()),
		fmt.Sprintf("%.2f", wall),
		fmt.Sprintf("%d", events),
		fm(float64(events)/wall),
		fmt.Sprintf("%d", delivered),
		f2(avgLatUs),
	)
	return t
}

// FabricScaleOnce runs the 1024-host scale workload once: every host sends
// a 512 B message every 2 μs to a deterministically rotating destination;
// receivers account delivery count and send-to-deliver latency. It returns
// wall-clock seconds, executed events, delivered messages and their mean
// latency — the -fig scale row and the scale_1024 row of BENCH_core.json.
func FabricScaleOnce(window sim.Time) (wallS float64, events, delivered uint64, avgLatUs float64) {
	cfg := netsim.DefaultConfig(scaleTopo, 1)
	cfg.FlowECMP = true // rng-free path selection
	n := netsim.New(cfg)

	hosts := len(n.G.Hosts)
	pool := n.PacketPool()
	var latSum sim.Time
	rx := func(pkt *netsim.Packet) {
		if pkt.Kind == netsim.KindData {
			delivered++
			latSum += n.Eng.Now() - pkt.SentAt
		}
		pool.Put(pkt)
	}
	for hi := 0; hi < hosts; hi++ {
		n.AttachHost(hi, rx)
	}

	const interval = 2 * sim.Microsecond
	for hi := 0; hi < hosts; hi++ {
		hi := hi
		k := 0
		var send func()
		send = func() {
			dst := (hi + 1 + (k*131)%(hosts-1)) % hosts
			pkt := pool.Get()
			pkt.Kind = netsim.KindData
			pkt.Src = netsim.ProcID(hi)
			pkt.Dst = netsim.ProcID(dst)
			pkt.MsgTS = n.Clocks[hi].Now()
			pkt.PSN = uint32(k)
			pkt.EndOfMsg = true
			pkt.Size = 512 + netsim.HeaderBytes
			n.SendFromHost(hi, pkt)
			k++
			n.Eng.After(interval, send)
		}
		// Stagger start times so the fabric does not see a synchronized
		// 1024-way burst at t=0.
		n.Eng.After(sim.Time(hi%200)*10*sim.Nanosecond, send)
	}

	start := time.Now()
	n.RunFor(window)
	wallS = time.Since(start).Seconds()
	if delivered > 0 {
		avgLatUs = float64(latSum) / float64(delivered) / float64(sim.Microsecond)
	}
	return wallS, n.ExecutedEvents(), delivered, avgLatUs
}
