package netsim

import (
	"testing"

	"onepipe/internal/sim"
)

// probeBarriers has every host stream data to random destinations every
// 500 ns for 2 ms and checks the per-link barrier promise on every host
// downlink. It returns each host's highest best-effort barrier seen and the
// number of data packets that arrived below it. Beacons raise the barrier;
// data packets raise it only in chip mode, the one incarnation that
// rewrites data barriers in flight — with switch-CPU or host-delegate
// processing the receiver honors beacon barriers alone (§6.2.2).
func probeBarriers(t *testing.T, cfg Config) (maxBarrier []sim.Time, viol int) {
	n := testNet(t, cfg)
	nh := len(n.G.Hosts)
	maxBarrier = make([]sim.Time, nh)
	for h := 0; h < nh; h++ {
		h := h
		n.AttachHost(h, func(p *Packet) {
			if p.Kind == KindData && p.MsgTS < maxBarrier[h] {
				viol++
			}
			if (p.Kind == KindBeacon || cfg.Mode == ModeChip) && p.BarrierBE > maxBarrier[h] {
				maxBarrier[h] = p.BarrierBE
			}
		})
	}
	for h := 0; h < nh; h++ {
		h := h
		sim.NewTicker(n.Eng, 500*sim.Nanosecond, 0, func() {
			ts := n.Clocks[h].Now()
			dst := ProcID(n.Eng.Rand().Intn(nh))
			n.SendFromHost(h, &Packet{Kind: KindData, Src: ProcID(h), Dst: dst,
				MsgTS: ts, BarrierBE: ts, BarrierC: ts, Size: 128})
		})
	}
	n.Eng.RunUntil(2 * sim.Millisecond)
	return maxBarrier, viol
}

// TestBarrierInvariantSweep checks the per-link barrier promise across the
// jitter / loss / ECMP / clock-skew configuration space. The jittered
// cases caught a real bug during development: non-uniform logical-switch
// pipeline latency let later-stamped packets overtake earlier ones.
func TestBarrierInvariantSweep(t *testing.T) {
	cases := []struct {
		name   string
		loss   float64
		jitter sim.Time
		flow   bool
		skew   bool
	}{
		{"jitter-spray", 0, 2000, false, false},
		{"jitter-flow", 0, 2000, true, false},
		{"loss-skew", 1e-3, 0, false, true},
		{"jitter-spray-skew", 0, 2000, false, true},
		{"everything", 1e-3, 3000, false, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Impair = Uniform(Impairment{Loss: tc.loss, Jitter: tc.jitter})
			cfg.FlowECMP = tc.flow
			if tc.skew {
				cfg.Clock = DefaultConfig(cfg.Topo, 1).Clock
			}
			if _, v := probeBarriers(t, cfg); v != 0 {
				t.Fatalf("%d barrier-invariant violations", v)
			}
		})
	}
}
