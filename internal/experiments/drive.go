package experiments

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/workload"
)

// pump is a running source drive's counters.
type pump struct {
	// Sent counts intents the fabric accepted (Send returned nil).
	Sent int
}

// drivePump pumps a workload.Source into a cluster: each intent becomes
// one scattering from Procs[Src]. With stamp set, messages carry the send
// time as payload (the latency convention every figure uses); without it
// they are anonymous background load. Intents at or past stop (when
// nonzero) end the pump.
func drivePump(cl *core.Cluster, src workload.Source, stop sim.Time, stamp bool) *pump {
	p := &pump{}
	eng := cl.Net.Eng
	n := len(cl.Procs)
	var step func()
	var cur workload.Intent
	var msgs []core.Message // every scattering is built here: Send copies it
	pull := func() bool {
		it, ok := src.Next()
		if !ok || (stop > 0 && it.At >= stop) {
			return false
		}
		cur = it
		at := it.At
		if now := eng.Now(); at < now {
			at = now
		}
		eng.At(at, step)
		return true
	}
	step = func() {
		msgs = msgs[:0]
		for _, d := range cur.Dsts {
			m := core.Message{Dst: netsim.ProcID(d % n), Size: cur.Size}
			if stamp {
				m.Data = eng.Now()
			}
			msgs = append(msgs, m)
		}
		src := cl.Procs[cur.Src%n]
		err := src.SendOpts(msgs, core.SendOptions{
			Reliable:    cur.Opts.Reliable,
			NoBatch:     cur.Opts.Unbatched,
			ConflictKey: cur.Opts.ConflictKey,
		})
		if err == nil {
			p.Sent++
		}
		pull()
	}
	pull()
	return p
}

// driveSource is the stamped pump (the latency-figure default).
func driveSource(cl *core.Cluster, src workload.Source, stop sim.Time) {
	drivePump(cl, src, stop, true)
}

// driveRaw pumps a Source as raw data-plane packets injected below the
// 1Pipe stack: intent Src/Dsts are host indices, each packet stamped with
// the sending host's synchronized clock (the pre-stack ablation path that
// measures what the fabric alone does to ordering).
func driveRaw(netN *netsim.Network, src workload.Source, stop sim.Time) {
	eng := netN.Eng
	var step func()
	var cur workload.Intent
	pull := func() bool {
		it, ok := src.Next()
		if !ok || (stop > 0 && it.At >= stop) {
			return false
		}
		cur = it
		at := it.At
		if now := eng.Now(); at < now {
			at = now
		}
		eng.At(at, step)
		return true
	}
	step = func() {
		ts := netN.Clocks[cur.Src].Now()
		for _, d := range cur.Dsts {
			netN.SendFromHost(cur.Src, &netsim.Packet{Kind: netsim.KindData,
				Src: netsim.ProcID(cur.Src), Dst: netsim.ProcID(d),
				MsgTS: ts, BarrierBE: ts, Size: cur.Size})
		}
		pull()
	}
	pull()
}
