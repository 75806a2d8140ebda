package onepipe

import (
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/race"
)

// TestSendFacadeAllocs: Process.Send is a facade over core.Proc.SendOpts and
// must not cost an allocation of its own on the default path — a send → ACK
// → deliver round through it with no options allocates exactly what the same
// round does through the endpoint directly (the scattering). Passing an
// option costs one more: the options struct escapes through the option's
// func value.
func TestSendFacadeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cl := NewCluster(Defaults())
	cl.Process(1).OnDeliverBatch(func([]Delivery) {})
	p := cl.Process(0)
	direct := p.backend.(simBackend).proc
	const runs = 100
	msgs := make([][]Message, 5*(runs+1)+64) // core keeps the slice: one per send
	for i := range msgs {
		msgs[i] = []Message{{Dst: 1, Size: 64}}
	}
	next := 0
	round := func(send func([]Message) error) func() {
		return func() {
			if err := send(msgs[next]); err != nil {
				t.Fatal(err)
			}
			next++
			cl.Run(20 * Microsecond)
		}
	}
	viaCore := round(func(m []Message) error { return direct.SendOpts(m, core.SendOptions{}) })
	viaCoreRel := round(func(m []Message) error { return direct.SendOpts(m, core.SendOptions{Reliable: true}) })
	viaFacade := round(func(m []Message) error { return p.Send(m) })
	viaFacadeRel := round(func(m []Message) error { return p.Send(m, Reliable()) })
	for i := 0; i < 32; i++ { // warm both classes: connections, pools, heaps, ACK state
		viaCore()
		viaCoreRel()
	}
	base := testing.AllocsPerRun(runs, viaCore)
	if base != 1 {
		t.Errorf("core.Proc.SendOpts round: %v allocs, want 1", base)
	}
	if got := testing.AllocsPerRun(runs, viaFacade); got != base {
		t.Errorf("Process.Send round: %v allocs, want the endpoint's %v", got, base)
	}
	baseRel := testing.AllocsPerRun(runs, viaCoreRel)
	if got := testing.AllocsPerRun(runs, viaFacadeRel); got != baseRel+1 {
		t.Errorf("Process.Send(Reliable()) round: %v allocs, want the endpoint's %v + 1", got, baseRel)
	}
}
