package core

import (
	"fmt"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

func smallNet(t *testing.T, procsPerHost int, mut func(*netsim.Config)) *Cluster {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, procsPerHost)
	if mut != nil {
		mut(&cfg)
	}
	return Deploy(netsim.New(cfg), DefaultConfig())
}

func TestBestEffortUnicastDelivery(t *testing.T) {
	cl := smallNet(t, 1, nil)
	log := record(cl)
	cl.Run(50 * sim.Microsecond)
	if err := sendLogged(cl, log, 0, []Message{{Dst: 5, Size: 64}}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * sim.Microsecond)
	if l := log.Deliveries[5]; len(l) != 1 || l[0].ID != log.Sends[0].ID {
		t.Fatalf("proc 5 log = %v", l)
	}
}

func TestScatteringSharesTimestamp(t *testing.T) {
	cl := smallNet(t, 1, nil)
	log := record(cl)
	cl.Run(50 * sim.Microsecond)
	var msgs []Message
	for dst := 1; dst < 8; dst++ {
		msgs = append(msgs, Message{Dst: netsim.ProcID(dst), Size: 64})
	}
	if err := sendLogged(cl, log, 0, msgs, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * sim.Microsecond)
	for dst := 1; dst < 8; dst++ {
		if l := log.Deliveries[dst]; len(l) != 1 || l[0].TS != log.Deliveries[1][0].TS {
			t.Fatalf("proc %d got %v; proc 1 got %v", dst, l, log.Deliveries[1])
		}
	}
}

// record installs a recorder on every proc that fills an oracle log, each
// delivery annotated with its receiver's clock and barriers; sends to be
// checked go through sendLogged.
func record(cl *Cluster) *oracle.Log {
	l := &oracle.Log{Mode: oracle.Mode(cl.cfg.Mode), Annotated: true, Deliveries: make([][]oracle.Delivery, len(cl.Procs))}
	for i, p := range cl.Procs {
		i, p := i, p
		p.OnDeliver = func(d Delivery) {
			be, c := p.host.Barriers()
			l.Deliveries[i] = append(l.Deliveries[i], oracle.Delivery{TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID),
				Reliable: d.Reliable, Conflict: d.Conflict, ClockAt: p.Timestamp(), BarBE: be, BarC: c})
		}
	}
	return l
}

// sendLogged submits msgs from proc src, each carrying the scattering's
// oracle ID as its data, and records the send in l.
func sendLogged(cl *Cluster, l *oracle.Log, src int, msgs []Message, o SendOptions) error {
	p := cl.Proc(src)
	s := oracle.Send{ID: oracle.ID{Src: p.ID, Seq: int32(len(l.Sends))}, Src: p.ID,
		Reliable: o.Reliable, Conflict: o.ConflictKey, At: p.Timestamp()}
	for i := range msgs {
		msgs[i].Data = s.ID
		s.Dsts = append(s.Dsts, msgs[i].Dst)
	}
	err := p.SendOpts(msgs, o)
	s.Refused = err != nil
	l.Sends = append(l.Sends, s)
	return err
}

// checkLog fails t on every violation of the delivery contract in l.
func checkLog(t *testing.T, l *oracle.Log) {
	t.Helper()
	for _, v := range oracle.Check(l) {
		t.Error(v)
	}
}

func TestTotalOrderManySenders(t *testing.T) {
	cl := smallNet(t, 2, nil)
	log := record(cl)
	np := len(cl.Procs)
	eng := cl.Net.Eng
	rng := eng.Rand()
	sent := 0
	for p := 0; p < np; p++ {
		p := p
		sim.NewTicker(eng, 700*sim.Nanosecond, 0, func() {
			if eng.Now() > 300*sim.Microsecond {
				return
			}
			dst := netsim.ProcID(rng.Intn(np))
			if sendLogged(cl, log, p, []Message{{Dst: dst, Size: 64}}, SendOptions{}) == nil {
				sent++
			}
		})
	}
	cl.Run(800 * sim.Microsecond)
	checkLog(t, log)
	if total := log.TotalDeliveries(); total == 0 || total < sent*9/10 {
		t.Fatalf("delivered %d of %d", total, sent)
	}
}

func TestCausality(t *testing.T) {
	// When a receiver delivers timestamp T, its own host clock must
	// already exceed T (§2.1 causality property).
	cl := smallNet(t, 1, nil)
	for i, p := range cl.Procs {
		i := i
		p.OnDeliver = func(d Delivery) {
			if now := cl.Procs[i].Timestamp(); now <= d.TS {
				t.Errorf("proc %d delivered ts=%v but clock=%v", i, d.TS, now)
			}
		}
	}
	eng := cl.Net.Eng
	for p := 0; p < len(cl.Procs); p++ {
		p := p
		sim.NewTicker(eng, 1*sim.Microsecond, 0, func() {
			if eng.Now() > 200*sim.Microsecond {
				return
			}
			dst := netsim.ProcID((p + 3) % len(cl.Procs))
			cl.Proc(p).Send([]Message{{Dst: dst, Size: 64}})
		})
	}
	cl.Run(400 * sim.Microsecond)
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.02); c.Seed = 42 })
	log := record(cl)
	cl.Run(50 * sim.Microsecond)
	const rounds = 60
	eng := cl.Net.Eng
	sent := 0
	for r := 0; r < rounds; r++ {
		r := r
		eng.At(sim.Time(50+r*5)*sim.Microsecond, func() {
			src := r % len(cl.Procs)
			dst := netsim.ProcID((r + 1) % len(cl.Procs))
			if sendLogged(cl, log, src, []Message{{Dst: dst, Size: 64}}, SendOptions{Reliable: true}) == nil {
				sent++
			}
		})
	}
	cl.Run(5 * sim.Millisecond)
	if got := log.TotalDeliveries(); got != sent {
		t.Fatalf("reliable delivered %d of %d under loss", got, sent)
	}
	checkLog(t, log)
	if cl.TotalStats().PktsRetx == 0 {
		t.Fatal("expected retransmissions under 2% loss")
	}
}

func TestReliableNoDuplicates(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.05); c.Seed = 7 })
	seen := make(map[int]int)
	for _, p := range cl.Procs {
		p.OnDeliver = func(d Delivery) { seen[d.Data.(int)]++ }
	}
	cl.Run(50 * sim.Microsecond)
	eng := cl.Net.Eng
	for i := 0; i < 100; i++ {
		i := i
		eng.At(sim.Time(50+i*3)*sim.Microsecond, func() {
			cl.Proc(i % 4).SendReliable([]Message{{Dst: netsim.ProcID(4 + i%4), Data: i, Size: 64}})
		})
	}
	cl.Run(10 * sim.Millisecond)
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", k, n)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("delivered %d of 100", len(seen))
	}
}

func TestBestEffortLossReportedNotRetransmitted(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.Impair = netsim.UniformLoss(0.10); c.Seed = 9 })
	delivered := make(map[int]bool)
	failed := make(map[int]bool)
	for _, p := range cl.Procs {
		p.OnDeliver = func(d Delivery) { delivered[d.Data.(int)] = true }
		p.OnSendFail = func(f SendFailure) { failed[f.Data.(int)] = true }
	}
	cl.Run(50 * sim.Microsecond)
	eng := cl.Net.Eng
	const n = 300
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(50+i)*sim.Microsecond, func() {
			cl.Proc(i % 4).Send([]Message{{Dst: netsim.ProcID(4 + i%4), Data: i, Size: 64}})
		})
	}
	cl.Run(10 * sim.Millisecond)
	if len(failed) == 0 {
		t.Fatal("no send failures reported at 10% loss")
	}
	if cl.TotalStats().PktsRetx != 0 {
		t.Fatal("best-effort traffic must not be retransmitted")
	}
	for i := 0; i < n; i++ {
		if !delivered[i] && !failed[i] {
			t.Fatalf("message %d neither delivered nor failed", i)
		}
		if delivered[i] && failed[i] {
			// Possible only if the ACK was lost: the sender reports
			// failure though the receiver delivered. Allowed by
			// at-most-once semantics; tolerate.
			continue
		}
	}
}

func TestBELatencyNearBeaconHalfInterval(t *testing.T) {
	cl := smallNet(t, 1, nil)
	var lat []sim.Time
	var sentAt sim.Time
	cl.Procs[1].OnDeliver = func(d Delivery) {
		lat = append(lat, cl.Net.Eng.Now()-sentAt)
	}
	eng := cl.Net.Eng
	for i := 0; i < 50; i++ {
		// Steps decorrelated from the 3us beacon phase.
		at := sim.Time(100_000+i*20_000+i%7*433) * sim.Nanosecond
		eng.At(at, func() {
			sentAt = eng.Now()
			cl.Proc(0).Send([]Message{{Dst: 1, Size: 64}}) // same rack
		})
	}
	cl.Run(2 * sim.Millisecond)
	if len(lat) != 50 {
		t.Fatalf("delivered %d of 50", len(lat))
	}
	var sum sim.Time
	for _, l := range lat {
		sum += l
	}
	avg := sum / sim.Time(len(lat))
	// Base one-way ~1us + beacon-wave wait (~2-6us) + clock skew.
	if avg < 1*sim.Microsecond || avg > 11*sim.Microsecond {
		t.Fatalf("intra-rack BE delivery latency %v outside expected envelope", avg)
	}
}

func TestReliableLatencyAddsRTT(t *testing.T) {
	// Cross-pod (5 switch hops): the prepare+ACK round trip (~7us)
	// dominates the beacon-tick quantization, exposing the paper's
	// "reliable = best-effort + 1 RTT" shape. Intra-rack, where the RTT
	// is below the mean beacon wait, the eager commit message can erase
	// (or even invert) the gap — see EXPERIMENTS.md.
	measure := func(reliable bool) sim.Time {
		cl := smallNet(t, 1, nil)
		var total sim.Time
		var n int
		var sentAt sim.Time
		cl.Procs[7].OnDeliver = func(d Delivery) {
			total += cl.Net.Eng.Now() - sentAt
			n++
		}
		eng := cl.Net.Eng
		for i := 0; i < 30; i++ {
			// Phases decorrelated from the beacon interval so the
			// prepare+ACK round trip is actually exposed.
			at := sim.Time(100_000+i*30_000+i%9*347) * sim.Nanosecond
			eng.At(at, func() {
				sentAt = eng.Now()
				m := []Message{{Dst: 7, Size: 64}}
				if reliable {
					cl.Proc(0).SendReliable(m)
				} else {
					cl.Proc(0).Send(m)
				}
			})
		}
		cl.Run(2 * sim.Millisecond)
		if n == 0 {
			t.Fatal("nothing delivered")
		}
		return total / sim.Time(n)
	}
	be, rel := measure(false), measure(true)
	if rel <= be {
		t.Fatalf("reliable latency %v not above best-effort %v", rel, be)
	}
	if rel-be > 10*sim.Microsecond {
		t.Fatalf("reliable adds %v, expected roughly one RTT (~2-4us)", rel-be)
	}
}

func TestReliableNotDeliveredBeforeCommit(t *testing.T) {
	// Suppress ACKs by killing the receiver's uplink... simpler: use a
	// huge RTO and drop all ACKs via 100% loss after the prepare arrives.
	// Instead verify via ordering: delivery must not happen before the
	// sender could have received the ACK (>= 1 full RTT after send).
	cl := smallNet(t, 1, nil)
	var deliveredAt sim.Time
	cl.Procs[7].OnDeliver = func(d Delivery) { deliveredAt = cl.Net.Eng.Now() }
	var sentAt sim.Time
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		sentAt = cl.Net.Eng.Now()
		cl.Proc(0).SendReliable([]Message{{Dst: 7, Size: 64}}) // cross pod
	})
	cl.Run(1 * sim.Millisecond)
	if deliveredAt == 0 {
		t.Fatal("not delivered")
	}
	// Cross-pod one-way is ~3.4us; a full prepare+ACK RTT is ~6.8us.
	if deliveredAt-sentAt < 6*sim.Microsecond {
		t.Fatalf("reliable delivered after %v, before 2PC could complete", deliveredAt-sentAt)
	}
}

func TestFragmentationLargeMessage(t *testing.T) {
	cl := smallNet(t, 1, nil)
	var got any
	cl.Procs[7].OnDeliver = func(d Delivery) { got = d.Data }
	payload := make([]byte, 10_000)
	payload[9999] = 42
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		if err := cl.Proc(0).SendReliable([]Message{{Dst: 7, Data: payload, Size: len(payload)}}); err != nil {
			t.Error(err)
		}
	})
	cl.Run(1 * sim.Millisecond)
	b, ok := got.([]byte)
	if !ok || len(b) != 10_000 || b[9999] != 42 {
		t.Fatalf("large message corrupted: %T", got)
	}
	// 10 KB at 1 KB MTU = 10 data packets.
	if s := cl.TotalStats(); s.PktsRetx != 0 && s.MsgsDelivered != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFlowControlBacklogDrains(t *testing.T) {
	cl := smallNet(t, 1, nil)
	delivered := 0
	cl.Procs[1].OnDeliver = func(d Delivery) { delivered++ }
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		// Burst far beyond the initial cwnd of 64.
		for i := 0; i < 2000; i++ {
			if err := cl.Proc(0).SendReliable([]Message{{Dst: 1, Size: 512}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	cl.Run(20 * sim.Millisecond)
	if delivered != 2000 {
		t.Fatalf("delivered %d of 2000 under flow control", delivered)
	}
}

func TestSendBufferFullReturnsError(t *testing.T) {
	cl := smallNet(t, 1, nil)
	cl.Run(50 * sim.Microsecond)
	var err error
	for i := 0; i < sendBufCap+100; i++ {
		if err = cl.Proc(0).SendReliable([]Message{{Dst: 1, Size: 1024}}); err != nil {
			break
		}
	}
	if err != ErrSendBufferFull {
		t.Fatalf("err = %v, want ErrSendBufferFull", err)
	}
}

func TestEmptyScatteringRejected(t *testing.T) {
	cl := smallNet(t, 1, nil)
	if err := cl.Proc(0).Send(nil); err != ErrNoMessages {
		t.Fatalf("err = %v", err)
	}
}

func TestUnifiedModeCrossClassOrder(t *testing.T) {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}, 1)
	ccfg := DefaultConfig()
	ccfg.Mode = DeliverUnified
	cl := Deploy(netsim.New(cfg), ccfg)
	log := record(cl)
	eng := cl.Net.Eng
	rng := eng.Rand()
	for p := 0; p < len(cl.Procs); p++ {
		p := p
		sim.NewTicker(eng, 2*sim.Microsecond, 0, func() {
			if eng.Now() > 300*sim.Microsecond {
				return
			}
			dst := netsim.ProcID(rng.Intn(len(cl.Procs)))
			sendLogged(cl, log, p, []Message{{Dst: dst, Size: 64}}, SendOptions{Reliable: rng.Intn(2) != 0})
		})
	}
	cl.Run(2 * sim.Millisecond)
	// In unified mode the single log per proc must be (ts,src)-sorted
	// across both classes.
	checkLog(t, log)
	if log.TotalDeliveries() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestRestrictedAtomicityOnReceiverFailure(t *testing.T) {
	// Scattering {dead, alive}: if the dead receiver never ACKed, the
	// alive receiver must not deliver (all-or-nothing, §5.2 Recall).
	cl := smallNet(t, 1, func(c *netsim.Config) { c.ControllerManagedCommit = true })
	deliveredAtAlive := false
	cl.Procs[2].OnDeliver = func(d Delivery) { deliveredAtAlive = true }
	eng := cl.Net.Eng
	// Kill host 1 before the send so its prepare is never ACKed.
	eng.At(90*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	eng.At(100*sim.Microsecond, func() {
		cl.Proc(0).SendReliable([]Message{
			{Dst: 1, Data: "to-dead", Size: 64},
			{Dst: 2, Data: "to-alive", Size: 64},
		})
	})
	// The controller (simulated here by hand) broadcasts the failure.
	var failTS sim.Time
	eng.At(200*sim.Microsecond, func() {
		failTS = 95 * sim.Microsecond // before the scattering's ts
		fail := map[netsim.ProcID]sim.Time{1: failTS}
		for hi, h := range cl.Hosts {
			if hi == 1 {
				continue
			}
			h.ApplyFailure(fail, func() {})
		}
	})
	cl.Run(5 * sim.Millisecond)
	if deliveredAtAlive {
		t.Fatal("atomicity violated: alive receiver delivered half a dead scattering")
	}
	// The sender must have reported both messages failed.
	fails := cl.Hosts[0].Stats.MsgsFailed
	if fails != 2 {
		t.Fatalf("sender reported %d failures, want 2", fails)
	}
	if cl.Hosts[0].Stats.Recalled != 1 {
		t.Fatalf("recalled = %d, want 1", cl.Hosts[0].Stats.Recalled)
	}
}

func TestCommitFloorStallsUntilRecallComplete(t *testing.T) {
	cl := smallNet(t, 1, func(c *netsim.Config) { c.ControllerManagedCommit = true })
	eng := cl.Net.Eng
	eng.At(90*sim.Microsecond, func() { cl.Net.G.KillNode(cl.Net.G.Host(1)) })
	var scatTS sim.Time
	eng.At(100*sim.Microsecond, func() {
		cl.Proc(0).SendReliable([]Message{{Dst: 1, Size: 64}, {Dst: 2, Size: 64}})
		scatTS = cl.Hosts[0].outstanding[0].ts
	})
	cl.Run(300 * sim.Microsecond)
	// Before ApplyFailure, the sender's commit floor is stuck below the
	// aborted scattering.
	if f := cl.Hosts[0].commitFloor(); f >= scatTS {
		t.Fatalf("commit floor %v advanced past un-ACKed scattering ts %v", f, scatTS)
	}
	fail := map[netsim.ProcID]sim.Time{1: 95 * sim.Microsecond}
	recallDone := false
	cl.Hosts[0].ApplyFailure(fail, func() { recallDone = true })
	for hi, h := range cl.Hosts {
		if hi != 0 && hi != 1 {
			h.ApplyFailure(fail, func() {})
		}
	}
	cl.Run(2 * sim.Millisecond)
	if !recallDone {
		t.Fatal("recall completion callback never fired")
	}
	if f := cl.Hosts[0].commitFloor(); f < scatTS {
		t.Fatalf("commit floor %v did not advance after recall", f)
	}
}

func TestBufferStatsTracked(t *testing.T) {
	cl := smallNet(t, 1, nil)
	cl.Net.Eng.At(100*sim.Microsecond, func() {
		for i := 0; i < 50; i++ {
			cl.Proc(0).Send([]Message{{Dst: 7, Size: 1024}})
		}
	})
	cl.Run(2 * sim.Millisecond)
	s := cl.Hosts[7].Stats
	if s.MaxBufferBytes == 0 {
		t.Fatal("reorder buffer max occupancy not tracked")
	}
	// The source of the benchmark's core.reorder_hot_max metric.
	if s.ReorderHotMax < 1 {
		t.Fatalf("peak per-plane buffer depth %d, want >= 1", s.ReorderHotMax)
	}
	if s.BufferedBytes != 0 || s.BufferedMsgs != 0 {
		t.Fatalf("buffer not drained: %d bytes, %d msgs", s.BufferedBytes, s.BufferedMsgs)
	}
}

// Property-style sweep: across seeds and modes, random mixed traffic keeps
// the total order and exactly-once (reliable) invariants.
func TestInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, mode := range []netsim.Mode{netsim.ModeChip, netsim.ModeHostDelegate} {
			seed, mode := seed, mode
			t.Run(fmt.Sprintf("seed%d-%s", seed, mode), func(t *testing.T) {
				cl := smallNet(t, 1, func(c *netsim.Config) {
					c.Seed = seed
					c.Mode = mode
					c.Impair = netsim.UniformLoss(0.01)
				})
				// DeliverSeparate gives each class its own total order;
				// every reliable message is delivered exactly once.
				log := record(cl)
				eng := cl.Net.Eng
				rng := eng.Rand()
				for p := 0; p < len(cl.Procs); p++ {
					p := p
					sim.NewTicker(eng, 3*sim.Microsecond, 0, func() {
						if eng.Now() > 200*sim.Microsecond {
							return
						}
						dst := netsim.ProcID(rng.Intn(len(cl.Procs)))
						sendLogged(cl, log, p, []Message{{Dst: dst, Size: 200}}, SendOptions{Reliable: rng.Intn(2) == 0})
					})
				}
				cl.Run(10 * sim.Millisecond)
				checkLog(t, log)
			})
		}
	}
}
