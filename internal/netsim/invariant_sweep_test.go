package netsim

import (
	"testing"

	"onepipe/internal/sim"
)

func runInv(t *testing.T, loss float64, jitter sim.Time, flowECMP bool, skew bool) int {
	cfg := smallCfg()
	cfg.Impair = Uniform(Impairment{Loss: loss, Jitter: jitter})
	cfg.FlowECMP = flowECMP
	if skew {
		cfg.Clock = DefaultConfig(cfg.Topo, 1).Clock
	}
	n := testNet(t, cfg)
	nh := len(n.G.Hosts)
	maxBarrier := make([]sim.Time, nh)
	viol := 0
	for h := 0; h < nh; h++ {
		h := h
		n.AttachHost(h, func(p *Packet) {
			if p.Kind == KindData && p.MsgTS < maxBarrier[h] {
				viol++
			}
			if p.BarrierBE > maxBarrier[h] {
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
	return viol
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
			if v := runInv(t, tc.loss, tc.jitter, tc.flow, tc.skew); v != 0 {
				t.Fatalf("%d barrier-invariant violations", v)
			}
		})
	}
}
