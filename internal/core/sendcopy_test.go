package core

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Send copies the caller's messages into the scattering, so a sender may
// reuse its slice the moment Send returns. These tests overwrite every
// field of every message right after each Send and require that nothing
// the fabric does later — a launch out of the credit wait queue, a
// retransmission, a send-failure report, a recall — sees the overwrite.

// clobber overwrites every message as a sender reusing its slice would.
func clobber(msgs []Message) {
	for i := range msgs {
		msgs[i] = Message{Dst: 6, Data: "clobbered", Size: 1}
	}
}

// TestSendCopyReliableUnderLoss: bursts of reliable 4-way 4 KiB scatterings
// from one reused slice, under loss. The bursts overrun the window, so most
// scatterings launch from the wait queue after Send returned, and lost
// fragments are retransmitted from the scattering's payload.
func TestSendCopyReliableUnderLoss(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.02); c.Seed = 11 })
	got := make([]map[int]int, len(cl.Procs))
	for i, p := range cl.Procs {
		i := i
		got[i] = make(map[int]int)
		p.OnDeliver = func(d Delivery) {
			n, ok := d.Data.(int)
			if !ok {
				t.Errorf("proc %d delivered %v", i, d.Data)
				return
			}
			got[i][n]++
		}
	}
	dsts := []netsim.ProcID{1, 3, 5, 7}
	msgs := make([]Message, len(dsts))
	var sent []int
	next := 0
	eng := cl.Net.Eng
	for b := 0; b < 4; b++ {
		eng.At(sim.Time(50+100*b)*sim.Microsecond, func() {
			for r := 0; r < 12; r++ {
				next++
				for i, d := range dsts {
					msgs[i] = Message{Dst: d, Data: next, Size: 4096}
				}
				if cl.Proc(0).SendReliable(msgs) == nil {
					sent = append(sent, next)
				}
				clobber(msgs)
			}
		})
	}
	cl.Run(10 * sim.Millisecond)
	if len(sent) < 24 {
		t.Fatalf("only %d scatterings accepted", len(sent))
	}
	for _, d := range dsts {
		if len(got[d]) != len(sent) {
			t.Errorf("proc %d delivered %d distinct messages, want %d", d, len(got[d]), len(sent))
		}
		for _, n := range sent {
			if got[d][n] != 1 {
				t.Errorf("proc %d delivered message %d %d times, want once", d, n, got[d][n])
			}
		}
	}
	if len(got[6]) != 0 {
		t.Errorf("the overwritten destination delivered %d messages", len(got[6]))
	}
	st := cl.TotalStats()
	if st.PktsRetx == 0 {
		t.Fatal("no retransmissions: the payload was never re-read")
	}
	if st.MsgsFailed != 0 {
		t.Fatalf("%d messages failed with every process alive", st.MsgsFailed)
	}
}

// TestSendCopyBestEffortFailure: a best-effort send whose destination's
// host has crashed is never ACKed; its send-failure report names the
// destination and data the sender passed, not what it wrote afterwards.
func TestSendCopyBestEffortFailure(t *testing.T) {
	cl := smallNet(t, 1, nil)
	var fails []SendFailure
	cl.Proc(0).OnSendFail = func(f SendFailure) { fails = append(fails, f) }
	eng := cl.Net.Eng
	eng.At(90*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	msgs := []Message{{Dst: 1, Data: "to-dead", Size: 64}}
	eng.At(100*sim.Microsecond, func() {
		if err := cl.Proc(0).Send(msgs); err != nil {
			t.Error(err)
		}
		clobber(msgs)
	})
	cl.Run(2 * sim.Millisecond)
	if len(fails) != 1 || fails[0].Dst != 1 || fails[0].Data != "to-dead" {
		t.Fatalf("send failures %+v, want one for dst 1 carrying \"to-dead\"", fails)
	}
}

// TestSendCopyRecall: a reliable scattering {dead, alive} is recalled once
// the failure is applied. Both failure reports and the recall itself go to
// the original destinations, and the alive receiver delivers nothing.
func TestSendCopyRecall(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.ControllerManagedCommit = true })
	var fails []SendFailure
	cl.Proc(0).OnSendFail = func(f SendFailure) { fails = append(fails, f) }
	delivered := 0
	for _, p := range cl.Procs {
		p.OnDeliver = func(Delivery) { delivered++ }
	}
	eng := cl.Net.Eng
	eng.At(90*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	msgs := []Message{{Dst: 1, Data: "to-dead", Size: 64}, {Dst: 2, Data: "to-alive", Size: 64}}
	eng.At(100*sim.Microsecond, func() {
		if err := cl.Proc(0).SendReliable(msgs); err != nil {
			t.Error(err)
		}
		clobber(msgs)
	})
	recalled := false
	eng.At(200*sim.Microsecond, func() {
		fail := map[netsim.ProcID]sim.Time{1: 95 * sim.Microsecond}
		cl.Hosts[0].ApplyFailure(fail, func() { recalled = true })
		for hi, h := range cl.Hosts {
			if hi > 1 {
				h.ApplyFailure(fail, func() {})
			}
		}
	})
	cl.Run(2 * sim.Millisecond)
	if !recalled || cl.Hosts[0].Stats.Recalled != 1 {
		t.Fatalf("recall completed %v, recalled %d, want one completed recall", recalled, cl.Hosts[0].Stats.Recalled)
	}
	if delivered != 0 {
		t.Fatalf("%d deliveries of a recalled scattering", delivered)
	}
	want := map[netsim.ProcID]any{1: "to-dead", 2: "to-alive"}
	if len(fails) != 2 {
		t.Fatalf("send failures %+v, want two", fails)
	}
	for _, f := range fails {
		if want[f.Dst] != f.Data {
			t.Errorf("send failure %+v does not carry the message sent to %d", f, f.Dst)
		}
		delete(want, f.Dst)
	}
}
