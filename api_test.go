package onepipe

import (
	"testing"

	"onepipe/internal/oracle"
)

func TestPollQueueBuffersBeforeCallback(t *testing.T) {
	cl := NewCluster(Defaults())
	cl.Run(50 * Microsecond)
	cl.Process(0).Send([]Message{{Dst: 3, Data: "a", Size: 16}})
	cl.Process(0).Send([]Message{{Dst: 3, Data: "b", Size: 16}})
	cl.Run(300 * Microsecond)
	p := cl.Process(3)
	if p.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", p.Pending())
	}
	d1, ok1 := p.Poll()
	d2, ok2 := p.Poll()
	_, ok3 := p.Poll()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("poll oks = %v %v %v", ok1, ok2, ok3)
	}
	if d1.Data != "a" || d2.Data != "b" {
		t.Fatalf("poll order: %v then %v", d1.Data, d2.Data)
	}
	if d1.TS >= d2.TS {
		t.Fatal("poll order not by timestamp")
	}
}

func TestProcessHandleCached(t *testing.T) {
	cl := NewCluster(Defaults())
	if cl.Process(1) != cl.Process(1) {
		t.Fatal("Process handles not cached")
	}
}

func TestCallbackSupersedesQueue(t *testing.T) {
	cl := NewCluster(Defaults())
	got := 0
	cl.Process(2).OnDeliver(func(Delivery) { got++ })
	cl.Run(50 * Microsecond)
	cl.Process(0).Send([]Message{{Dst: 2, Size: 16}})
	cl.Run(300 * Microsecond)
	if got != 1 {
		t.Fatalf("callback saw %d deliveries", got)
	}
	if cl.Process(2).Pending() != 0 {
		t.Fatal("delivery also queued despite callback")
	}
}

func TestUnifiedConfig(t *testing.T) {
	cfg := Defaults()
	cfg.Delivery = DeliverUnified
	cl := NewCluster(cfg)
	cl.Run(50 * Microsecond)
	// Interleave classes; the unified poll stream must keep one total order.
	log := oracle.Log{Mode: oracle.Unified, Deliveries: make([][]oracle.Delivery, 6)}
	for i := 0; i < 10; i++ {
		src := ProcID(i % 2)
		s := oracle.Send{ID: oracle.ID{Src: src, Seq: int32(i)}, Src: src, Dsts: []ProcID{5}, Reliable: i%2 == 1}
		var opts []SendOption
		if s.Reliable {
			opts = append(opts, Reliable())
		}
		s.Refused = cl.Process(int(src)).Send([]Message{{Dst: 5, Data: s.ID, Size: 16}}, opts...) != nil
		log.Sends = append(log.Sends, s)
		cl.Run(5 * Microsecond)
	}
	cl.Run(1 * Millisecond)
	for {
		d, ok := cl.Process(5).Poll()
		if !ok {
			break
		}
		log.Deliveries[5] = append(log.Deliveries[5], oracleDelivery(d))
	}
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	if n := log.TotalDeliveries(); n != 10 {
		t.Fatalf("delivered %d of 10", n)
	}
}

func TestTestbedTopology(t *testing.T) {
	cfg := Defaults()
	cfg.Topology = Testbed()
	cfg.ProcsPerHost = 2
	cl := NewCluster(cfg)
	if cl.NumProcesses() != 64 {
		t.Fatalf("NumProcesses = %d, want 64", cl.NumProcesses())
	}
	if cl.Now() != 0 {
		t.Fatal("fresh cluster not at time zero")
	}
}

func TestModeConfigPropagates(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeHostDelegate
	cfg.BeaconInterval = 1 * Microsecond
	cl := NewCluster(cfg)
	if cl.Network().Cfg.Mode != ModeHostDelegate {
		t.Fatal("mode not propagated")
	}
	if cl.Network().Cfg.BeaconInterval != 1*Microsecond {
		t.Fatal("beacon interval not propagated")
	}
}
