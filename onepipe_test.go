package onepipe

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
)

func TestQuickstartFlow(t *testing.T) {
	cl := NewCluster(Defaults())
	var got []Delivery
	cl.Process(1).OnDeliver(func(d Delivery) { got = append(got, d) })
	cl.Run(50 * Microsecond)
	if err := cl.Process(0).Send([]Message{{Dst: 1, Data: "hello", Size: 64}}); err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * Microsecond)
	if len(got) != 1 || got[0].Data != "hello" || got[0].Src != 0 {
		t.Fatalf("got %v", got)
	}
	if got[0].TS <= 0 {
		t.Fatal("delivery has no timestamp")
	}
}

func TestScatteringAtomicTimestampViaAPI(t *testing.T) {
	cl := NewCluster(Defaults())
	ts := make(map[int]Timestamp)
	for i := 1; i < 4; i++ {
		i := i
		cl.Process(i).OnDeliver(func(d Delivery) { ts[i] = d.TS })
	}
	cl.Run(50 * Microsecond)
	cl.Process(0).Send([]Message{
		{Dst: 1, Data: 1, Size: 64},
		{Dst: 2, Data: 2, Size: 64},
		{Dst: 3, Data: 3, Size: 64},
	}, Reliable())
	cl.Run(300 * Microsecond)
	if len(ts) != 3 {
		t.Fatalf("delivered to %d of 3", len(ts))
	}
	if ts[1] != ts[2] || ts[2] != ts[3] {
		t.Fatalf("scattering timestamps differ: %v", ts)
	}
}

func TestTotalOrderAcrossReceiversViaAPI(t *testing.T) {
	cl := NewCluster(Defaults())
	n := cl.NumProcesses()
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, n)}
	for i := 0; i < n; i++ {
		cl.Process(i).OnDeliver(func(d Delivery) { log.Deliveries[i] = append(log.Deliveries[i], oracleDelivery(d)) })
	}
	cl.Run(50 * Microsecond)
	// Everyone scatters to everyone a few times.
	for round := 0; round < 10; round++ {
		for p := 0; p < n; p++ {
			s := oracle.Send{ID: oracle.ID{Src: ProcID(p), Seq: int32(round)}, Src: ProcID(p)}
			var msgs []Message
			for q := 0; q < n; q++ {
				if q != p {
					msgs = append(msgs, Message{Dst: ProcID(q), Data: s.ID, Size: 64})
					s.Dsts = append(s.Dsts, ProcID(q))
				}
			}
			s.Refused = cl.Process(p).Send(msgs) != nil
			log.Sends = append(log.Sends, s)
		}
		cl.Run(30 * Microsecond)
	}
	cl.Run(500 * Microsecond)
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	for i, l := range log.Deliveries {
		if len(l) == 0 {
			t.Fatalf("proc %d delivered nothing", i)
		}
	}
}

func TestFailureCallbacksViaAPI(t *testing.T) {
	cfg := Defaults()
	cfg.WithController = true
	cl := NewCluster(cfg)
	var failedProc ProcID = -1
	cl.Process(2).OnProcFail(func(p ProcID, ts Timestamp) { failedProc = p })
	sendFails := 0
	cl.Process(0).OnSendFail(func(SendFailure) { sendFails++ })
	cl.Run(100 * Microsecond)
	cl.KillHost(1)
	cl.Process(0).Send([]Message{
		{Dst: 1, Size: 64}, {Dst: 2, Size: 64},
	}, Reliable())
	cl.Run(5 * Millisecond)
	if failedProc != 1 {
		t.Fatalf("proc-fail callback saw %d, want 1", failedProc)
	}
	if sendFails != 2 {
		t.Fatalf("send failures = %d, want 2 (recalled scattering)", sendFails)
	}
	if cl.Controller() == nil || len(cl.Controller().Failures) == 0 {
		t.Fatal("controller recorded no failure")
	}
}

func TestTimestampMonotoneViaAPI(t *testing.T) {
	cl := NewCluster(Defaults())
	p := cl.Process(0)
	last := Timestamp(-1)
	for i := 0; i < 100; i++ {
		cl.Run(1 * Microsecond)
		now := p.Timestamp()
		if now < last {
			t.Fatal("timestamp went backwards")
		}
		last = now
	}
}

func TestLossConfigViaAPI(t *testing.T) {
	cfg := Defaults()
	cfg.Impair = netsim.UniformLoss(0.05)
	cfg.Seed = 3
	cl := NewCluster(cfg)
	delivered, failed := 0, 0
	cl.Process(1).OnDeliver(func(Delivery) { delivered++ })
	cl.Process(0).OnSendFail(func(SendFailure) { failed++ })
	cl.Run(50 * Microsecond)
	for i := 0; i < 200; i++ {
		cl.Process(0).Send([]Message{{Dst: 1, Size: 64}})
		cl.Run(2 * Microsecond)
	}
	cl.Run(2 * Millisecond)
	if delivered == 0 || failed == 0 {
		t.Fatalf("delivered=%d failed=%d under loss", delivered, failed)
	}
	if delivered+failed < 200 {
		t.Fatalf("accounting hole: %d+%d < 200", delivered, failed)
	}
}

// oracleDelivery converts a delivery whose data is its scattering's oracle
// ID into the oracle's log entry.
func oracleDelivery(d Delivery) oracle.Delivery {
	return oracle.Delivery{TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID), Reliable: d.Reliable, Conflict: d.Conflict}
}
