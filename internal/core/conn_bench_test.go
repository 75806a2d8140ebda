package core

import (
	"fmt"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// discardWire is the minimal Wire for exercising conn in isolation: packets
// go straight back to the pool and timers never fire.
type discardWire struct {
	now sim.Time
}

func (w *discardWire) Send(pkt *netsim.Packet) { netsim.PutPacket(pkt) }
func (w *discardWire) Now() sim.Time           { return w.now }
func (w *discardWire) After(sim.Time, func())  {}

// BenchmarkRTORetransmit measures one RTO firing over a window of n unACKed
// reliable packets. The reliable plane's unit ring is kept in PSN order, so a
// firing walks it as it stands instead of sorting a key set; this pins the
// cost of the walk at window sizes bracketing the default send window.
func BenchmarkRTORetransmit(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			w := &discardWire{now: 1}
			h := NewHost(0, w, DefaultConfig())
			h.Cfg.MaxRetx = 0 // never park: keep the window stable across firings
			c := h.AddProc(0).conn(1)
			s := &scattering{reliable: true, ts: 1, msgs: []sendMsg{{Message: Message{Dst: 1, Size: 64}, frags: 1}}}
			for i := 0; i < n; i++ {
				psn := c.nextPSN[1]
				c.nextPSN[1]++
				op := &outPkt{psn: psn, scat: s, endOfMsg: true, size: 64}
				c.attach(h).unacked[1].push(op)
				c.inflight++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.onRTO()
			}
		})
	}
}
