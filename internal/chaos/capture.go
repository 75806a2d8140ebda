package chaos

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/wire"
)

// CaptureWirePackets runs a short, fault-heavy plan and returns encoded
// wire-format frames of the packets delivered to hosts — beacons carrying
// live barriers, recalls and recall ACKs from the abort path, commit
// messages, coalesced ACKs and commit-eliding data packets. The wire fuzz
// corpus seeds itself from these (satisfying "headers captured from chaos
// runs" with real protocol state rather than hand-built constants).
func CaptureWirePackets(seed int64, perKind int) [][]byte {
	p := NewPlan(seed)
	// Force the interesting machinery regardless of what the seed drew:
	// a crash produces recalls, loss produces retransmissions and NAKs.
	p.Topo.Pods, p.Topo.RacksPerPod, p.Topo.HostsPerRack = 1, 2, 3
	p.Topo.SpinesPerPod, p.Topo.Cores = 1, 1
	p.RunFor = 4 * sim.Millisecond
	p.Workload.Stop = p.RunFor - 2*sim.Millisecond
	p.Workload.ReliableFrac = 0.7
	p.Workload.MaxFanout = 3 // multi-member scatterings, so aborts issue recalls
	p.BaseLoss = 0.02
	p.Jitter = 2 * sim.Microsecond // stragglers below the floor draw NAKs
	p.Faults = []Fault{
		{At: 800 * sim.Microsecond, Kind: FaultHostCrash, Host: p.Topo.NumHosts() - 1},
		{At: 1200 * sim.Microsecond, Kind: FaultLossBurst, Dur: 500 * sim.Microsecond, Rate: 0.2},
	}
	// Widen the coalescing window well past the send interval so same-conn
	// scatterings merge and the corpus contains genuine multi-message frames.
	p.BatchWindow = 20 * sim.Microsecond
	// Tag about half the workload with conflict keys under conflict-aware
	// delivery, so the corpus carries nonzero ConflictKey headers and frames
	// mixing tagged and untagged entries.
	p.Mode = core.DeliverConflictAware
	p.ConflictRate = 0.5

	counts := make(map[netsim.Kind]int)
	frames, multiAcks := 0, 0
	var out [][]byte
	runWith(p, func(_ int, _ sim.Time, pkt *netsim.Packet) {
		// Frame-flagged data packets and ACKs that coalesce several entries
		// get their own quotas: they are rarer than plain data packets and
		// one-entry ACKs and would otherwise be crowded out.
		if b, ok := pkt.Payload.(*netsim.AckBatch); ok && len(b.PSNs) > 1 {
			if multiAcks >= perKind {
				return
			}
			multiAcks++
		} else if pkt.Frame {
			if frames >= perKind {
				return
			}
			frames++
		} else {
			if counts[pkt.Kind] >= perKind {
				return
			}
			counts[pkt.Kind]++
		}
		out = append(out, wire.Encode(pkt, nil))
	}, nil)
	return out
}
