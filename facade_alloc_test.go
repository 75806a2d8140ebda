package onepipe

import (
	"sync"
	"sync/atomic"
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/race"
)

// TestSendFacadeAllocs: Process.Send is a facade over core.Proc.SendOpts and
// must not cost an allocation of its own on the default path — a send → ACK
// → deliver round through it with no options allocates exactly what the same
// round does through the endpoint directly: nothing, as the scattering comes
// off the fabric's free list. Passing an option costs nothing more: the
// options are applied into a pooled struct.
func TestSendFacadeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cl := NewCluster(Defaults())
	cl.Process(1).OnDeliverBatch(func([]Delivery) {})
	p := cl.Process(0)
	direct := p.backend.(simBackend).proc
	const runs = 100
	msgs := []Message{{Dst: 1, Size: 64}} // Send copies it: one for every round
	round := func(send func([]Message) error) func() {
		return func() {
			if err := send(msgs); err != nil {
				t.Fatal(err)
			}
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
	if base != 0 {
		t.Errorf("core.Proc.SendOpts round: %v allocs, want 0", base)
	}
	if got := testing.AllocsPerRun(runs, viaFacade); got != base {
		t.Errorf("Process.Send round: %v allocs, want the endpoint's %v", got, base)
	}
	baseRel := testing.AllocsPerRun(runs, viaCoreRel)
	if got := testing.AllocsPerRun(runs, viaFacadeRel); got != baseRel {
		t.Errorf("Process.Send(Reliable()) round: %v allocs, want the endpoint's %v", got, baseRel)
	}
}

// optsBackend is a procBackend that only inspects what Send hands it.
type optsBackend struct {
	check func([]Message, core.SendOptions)
}

func (optsBackend) id() ProcID { return 0 }
func (b optsBackend) send(msgs []Message, o core.SendOptions) error {
	b.check(msgs, o)
	return nil
}
func (optsBackend) setOnDeliver(func(Delivery))           {}
func (optsBackend) setOnDeliverBatch(func([]Delivery))    {}
func (optsBackend) setOnSendFail(func(SendFailure))       {}
func (optsBackend) setOnProcFail(func(ProcID, Timestamp)) {}
func (optsBackend) now() Timestamp                        { return 0 }

// TestSendOptionsConcurrent: the real-time fabrics call Send from several
// goroutines, and the options are applied into pooled scratch. Every send
// must reach its backend with exactly its own options, zeroed of whatever
// the scratch held before (run under -race by make race).
func TestSendOptionsConcurrent(t *testing.T) {
	var bad atomic.Int32
	p := newProcess(optsBackend{check: func(msgs []Message, o core.SendOptions) {
		key := uint32(msgs[0].Size)
		want := core.SendOptions{ConflictKey: key, Reliable: key%2 == 1}
		if key%3 == 0 {
			want.NoBatch = true
		}
		if o != want {
			bad.Add(1)
		}
	}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 2000; i++ {
				key := uint32(g*10000 + i)
				opts := []SendOption{Conflicts(key)}
				if key%2 == 1 {
					opts = append(opts, Reliable())
				}
				if key%3 == 0 {
					opts = append(opts, Unbatched())
				}
				if err := p.Send([]Message{{Size: int(key)}}, opts...); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d sends reached the backend with another send's options", n)
	}
}
