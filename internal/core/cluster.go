package core

import (
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// simWire adapts one simulated host's network attachment to the Wire
// interface.
type simWire struct {
	n    *netsim.Network
	host int
}

func (w simWire) Send(pkt *netsim.Packet)     { w.n.SendFromHost(w.host, pkt) }
func (w simWire) Now() sim.Time               { return w.n.Clocks[w.host].Now() }
func (w simWire) After(d sim.Time, fn func()) { w.n.Eng.After(d, fn) }
func (w simWire) TimerEngine() *sim.Engine    { return w.n.Eng }
func (w simWire) PacketPool() *netsim.Pool    { return w.n.PacketPool() }

// Cluster is a fully deployed 1Pipe fabric on the network simulator: one
// lib1pipe Host per simulated machine and one Proc per process.
type Cluster struct {
	Net   *netsim.Network
	Hosts []*Host
	Procs []*Proc

	// cfg is the resolved endpoint configuration Deploy used, retained so
	// hosts joined at runtime get identical settings.
	cfg Config
}

// Deploy attaches a lib1pipe runtime to every host of the simulated
// network and registers every process. The endpoint configuration is
// derived from the network's incarnation mode (data packets carry valid
// barriers only with the programmable chip) and beacon interval.
func Deploy(n *netsim.Network, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	cfg.BeaconInterval = n.Cfg.BeaconInterval
	cl := &Cluster{Net: n, cfg: cfg}
	for hi := 0; hi < len(n.G.Hosts); hi++ {
		h := cl.newHost(hi)
		n.AttachHost(hi, h.HandlePacket)
		h.Start()
		cl.Hosts = append(cl.Hosts, h)
	}
	for p := 0; p < n.NumProcs(); p++ {
		proc := cl.Hosts[n.HostOfProc(netsim.ProcID(p))].AddProc(netsim.ProcID(p))
		cl.Procs = append(cl.Procs, proc)
	}
	return cl
}

// Proc returns process p's endpoint.
func (cl *Cluster) Proc(p int) *Proc { return cl.Procs[p] }

// AddHost attaches a lib1pipe runtime to host hi of an already-running
// fabric (the network must have grown its state first) and registers its
// process block. floor is the join epoch T_join: the host's clock reads
// and timestamps are forced above it before the first beacon, so nothing
// this host ever emits can fall below what its pre-seeded link registers
// promised. Returns the new host; its procs append to cl.Procs in ID
// order.
func (cl *Cluster) AddHost(hi int, floor sim.Time) *Host {
	n := cl.Net
	n.Clocks[hi].AdvanceTo(floor)
	h := cl.newHost(hi)
	h.SetFloor(floor)
	n.AttachHost(hi, h.HandlePacket)
	h.Start()
	cl.Hosts = append(cl.Hosts, h)
	pph := n.Cfg.ProcsPerHost
	for p := hi * pph; p < (hi+1)*pph; p++ {
		cl.Procs = append(cl.Procs, h.AddProc(netsim.ProcID(p)))
	}
	return h
}

// newHost builds host hi's runtime on the simulated network; its data
// packets carry valid barriers only with the programmable chip.
func (cl *Cluster) newHost(hi int) *Host {
	h := NewHost(hi, simWire{n: cl.Net, host: hi}, cl.cfg)
	h.dataBarriers = cl.Net.Cfg.Mode == netsim.ModeChip
	return h
}

// EnableTracing installs a fresh lifecycle tracer on every host and returns
// them (index == host index) for obs.Merge after the run. Call before
// traffic flows; hosts deployed without it pay only the nil-check branch.
func (cl *Cluster) EnableTracing() []*obs.Trace {
	out := make([]*obs.Trace, len(cl.Hosts))
	for i, h := range cl.Hosts {
		if h.Obs == nil {
			h.Obs = obs.NewTrace()
		}
		out[i] = h.Obs
	}
	return out
}

// Run advances the simulation by d.
func (cl *Cluster) Run(d sim.Time) { cl.Net.RunFor(d) }

// TotalStats sums the per-host statistics.
func (cl *Cluster) TotalStats() HostStats {
	var t HostStats
	for _, h := range cl.Hosts {
		t.MsgsSent += h.Stats.MsgsSent
		t.MsgsDelivered += h.Stats.MsgsDelivered
		t.MsgsFailed += h.Stats.MsgsFailed
		t.PktsSent += h.Stats.PktsSent
		t.PktsRetx += h.Stats.PktsRetx
		t.Naks += h.Stats.Naks
		t.DupPkts += h.Stats.DupPkts
		t.Commits += h.Stats.Commits
		t.Beacons += h.Stats.Beacons
		t.Recalled += h.Stats.Recalled
		t.StuckReports += h.Stats.StuckReports
		t.BeaconsSuppressed += h.Stats.BeaconsSuppressed
		t.FramesSent += h.Stats.FramesSent
		t.FrameMsgs += h.Stats.FrameMsgs
		t.Backpressure += h.Stats.Backpressure
		t.DeliverBatches += h.Stats.DeliverBatches
		t.RelaxedDeliveries += h.Stats.RelaxedDeliveries
		t.ConnsLive += h.Stats.ConnsLive
		if h.Stats.MaxBufferBytes > t.MaxBufferBytes {
			t.MaxBufferBytes = h.Stats.MaxBufferBytes
		}
		if h.Stats.ReorderHotMax > t.ReorderHotMax {
			t.ReorderHotMax = h.Stats.ReorderHotMax
		}
	}
	return t
}

// Occupancy merges the per-host batch-occupancy histograms: send-side frame
// sizes (messages per emitted frame, batched traffic only) and receive-side
// delivery-batch sizes. The returned histograms are fresh copies.
func (cl *Cluster) Occupancy() (send, recv *stats.Histogram) {
	send, recv = &stats.Histogram{}, &stats.Histogram{}
	for _, h := range cl.Hosts {
		send.Merge(h.SendOccupancy())
		recv.Merge(h.RecvOccupancy())
	}
	return send, recv
}
