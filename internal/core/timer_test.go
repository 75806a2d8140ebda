package core

import (
	"testing"
	"unsafe"

	"onepipe/internal/netsim"
	"onepipe/internal/race"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestTimerFootprint pins the size the timer must keep: a sparse fabric
// holds two per connection and one per ACK peer, tens of thousands in all.
func TestTimerFootprint(t *testing.T) {
	if got := unsafe.Sizeof(timer{}); got != 48 {
		t.Fatalf("core.timer is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(sim.Timer{}); got != 32 {
		t.Fatalf("sim.Timer is %d bytes, want 32", got)
	}
}

// simPair deploys the smallest simulated fabric: two hosts under one
// rack switch, one process each.
func simPair(t testing.TB) *Cluster {
	t.Helper()
	return simRack(2, DefaultConfig())
}

// simRack deploys one rack switch with the given number of one-process
// hosts.
func simRack(hosts int, cfg Config) *Cluster {
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: hosts, SpinesPerPod: 1, Cores: 1}, 1)
	return Deploy(netsim.New(ncfg), cfg)
}

// TestQuiescentPendingAfterAckedSends is the lifetime claim on the simulated
// wire: once N best-effort sends are ACKed and the fabric is idle again, the
// engine holds exactly what it held before them — the periodic beacon and
// scanner work — and not N dead send-fail timers waiting out their 100 µs.
func TestQuiescentPendingAfterAckedSends(t *testing.T) {
	const n = 10000
	cl := simPair(t)
	eng := cl.Net.Eng
	delivered := 0
	cl.Proc(1).OnDeliverBatch = func(ds []Delivery) { delivered += len(ds) }
	cl.Proc(0).OnSendFail = func(f SendFailure) { t.Errorf("send failed: %+v", f) }

	// The idle fabric is periodic in the beacon interval: sample Pending at
	// one fixed phase of it, before and after.
	period := cl.cfg.BeaconInterval
	cl.Run(20 * period)
	idle := eng.Pending()
	cl.Run(period)
	t0 := eng.Now()
	if again := eng.Pending(); again != idle {
		t.Fatalf("idle fabric is not periodic: Pending %d then %d one beacon interval later", idle, again)
	}

	for sent := 0; sent < n; { // 100 messages per µs
		for i := 0; i < 10; i++ {
			if err := cl.Proc(0).Send([]Message{{Dst: 1, Data: sent, Size: 64}}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		cl.Run(period / 30)
	}
	if busy := eng.Pending(); busy <= idle {
		t.Fatalf("Pending %d while sending, idle %d: the sends left no work to wait out", busy, idle)
	}
	// Well under SendFailTimeout after the later sends: the ACKs are all in,
	// but tombstone timers would still be waiting out their 100 µs.
	cl.Run(6*period - (eng.Now()-t0)%period)
	if delivered != n {
		t.Fatalf("%d of %d delivered", delivered, n)
	}
	for _, c := range cl.Hosts[0].connList() {
		k := c.key
		if w := c.view(); w.unacked[0].len() != 0 || w.sendQ.len() != 0 {
			t.Fatalf("conn %v still has %d unACKed, %d queued", k, w.unacked[0].len(), w.sendQ.len())
		}
	}
	if got := eng.Pending(); got != idle {
		t.Fatalf("Pending = %d after %d ACKed sends, want the idle %d", got, n, idle)
	}
}

// TestBestEffortRoundUsesFabricPool: on a fabric with its own packet
// lists, a warm best-effort send → deliver → ACK round takes every packet it
// sends — data, ACK, beacons — from those lists and returns every one to
// them: none comes from, or goes to, the package-level pool.
func TestBestEffortRoundUsesFabricPool(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, procs, wires := cablePair(cfg)
	pool := wires[0].pool
	delivered := 0
	procs[1].OnDeliverBatch = func(ds []Delivery) { delivered += len(ds) }
	round := func() {
		if err := procs[0].Send([]Message{{Dst: 1, Size: 64}}); err != nil {
			t.Fatal(err)
		}
		eng.RunFor(4 * cfg.BeaconInterval)
	}
	for i := 0; i < 64; i++ { // warm: the lists grow to the working set
		round()
	}
	eng.RunFor(cfg.BeaconInterval / 3) // the last beacons land
	owned := map[*netsim.Packet]bool{}
	var held []*netsim.Packet
	for pool.Free() > 0 {
		p := pool.Get()
		owned[p] = true
		held = append(held, p)
	}
	for _, p := range held {
		pool.Put(p)
	}
	kinds := map[netsim.Kind]int{}
	for _, w := range wires {
		w.drop = func(pkt *netsim.Packet) bool {
			kinds[pkt.Kind]++
			if !owned[pkt] {
				t.Errorf("a %s packet did not come from the fabric's list", pkt.Kind)
			}
			return false
		}
	}
	const rounds = 16
	for i := 0; i < rounds; i++ {
		round()
	}
	eng.RunFor(cfg.BeaconInterval / 3)
	if delivered != 64+rounds || kinds[netsim.KindData] != rounds || kinds[netsim.KindAck] == 0 || kinds[netsim.KindBeacon] == 0 {
		t.Fatalf("%d delivered, packets sent by kind %v: want %d and data, ACKs and beacons", delivered, kinds, 64+rounds)
	}
	if pool.Free() != len(owned) {
		t.Fatalf("the list holds %d packets after the rounds, %d before", pool.Free(), len(owned))
	}
}

// TestBestEffortRoundAllocs pins the allocations of one best-effort send →
// deliver → ACK round on a warm simulated connection. Re-introducing a
// closure per timer arm (send-fail, doorbell, ACK flush), a send queue that
// reallocates per message, or a fresh object per delivery or per ACK shows
// up here, not first in a benchmark.
func TestBestEffortRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cl := simPair(t)
	delivered := 0
	cl.Proc(1).OnDeliverBatch = func(ds []Delivery) { delivered += len(ds) }
	const runs = 200
	msgs := make([][]Message, runs+1+64) // core keeps the slice: one per send
	for i := range msgs {
		msgs[i] = []Message{{Dst: 1, Data: nil, Size: 64}}
	}
	next := 0
	round := func() {
		if err := cl.Proc(0).Send(msgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		cl.Run(4 * cl.cfg.BeaconInterval)
	}
	for i := 0; i < 64; i++ { // warm: connection, pools, heaps, ACK state
		round()
	}
	// Nothing. The scattering comes off the fabric's free list, where the
	// previous round's went back at its ACK, with its per-message slices,
	// credit and outPkt embedded in it; the receiver's reorder entry comes off
	// the host's free list, the ACK batch and every packet from their pools.
	// No timer, no closure.
	const want = 0
	if avg := testing.AllocsPerRun(runs, round); avg != want {
		t.Errorf("best-effort round: %v allocs, want %d", avg, want)
	}
	if delivered != next {
		t.Fatalf("%d of %d delivered", delivered, next)
	}
}

// --- a two-host fabric with nothing else in the queue ---

// cableWire joins two hosts over one engine by a fixed-latency cable. Every
// queued entry is then a packet in flight or one of the two hosts' timers,
// so Engine.Pending can be accounted for exactly. Each host sees the other's
// floors directly, as under a single switch.
type cableWire struct {
	eng  *sim.Engine
	peer *Host
	pool *netsim.Pool // the pair's, shared
	drop func(*netsim.Packet) bool
}

const cableDelay = 400 * sim.Nanosecond

func cableDeliver(h, pkt any) { h.(*Host).HandlePacket(pkt.(*netsim.Packet)) }

func (w *cableWire) Send(pkt *netsim.Packet) {
	if w.drop != nil && w.drop(pkt) {
		w.pool.Put(pkt)
		return
	}
	w.eng.After2(cableDelay, cableDeliver, w.peer, pkt)
}
func (w *cableWire) Now() sim.Time               { return w.eng.Now() }
func (w *cableWire) After(d sim.Time, fn func()) { w.eng.After(d, fn) }
func (w *cableWire) TimerEngine() *sim.Engine    { return w.eng }
func (w *cableWire) PacketPool() *netsim.Pool    { return w.pool }

// cablePair starts hosts 0 and 1 (process IDs 0 and 1) on a fresh engine.
func cablePair(cfg Config) (eng *sim.Engine, hosts [2]*Host, procs [2]*Proc, wires [2]*cableWire) {
	eng = sim.NewEngine(1)
	pool := new(netsim.Pool)
	for i := range hosts {
		wires[i] = &cableWire{eng: eng, pool: pool}
		hosts[i] = NewHost(i, wires[i], cfg)
	}
	wires[0].peer, wires[1].peer = hosts[1], hosts[0]
	for i, h := range hosts {
		h.Start()
		procs[i] = h.AddProc(netsim.ProcID(i))
	}
	return eng, hosts, procs, wires
}

// TestSendFailFiresOnceAtDeadline: a best-effort message whose ACK never
// comes is reported exactly once, exactly SendFailTimeout after its
// timestamp, and leaves nothing armed behind.
func TestSendFailFiresOnceAtDeadline(t *testing.T) {
	cfg := DefaultConfig()
	eng, hosts, procs, wires := cablePair(cfg)
	wires[1].drop = func(pkt *netsim.Packet) bool { return pkt.Kind == netsim.KindAck }
	delivered := 0
	procs[1].OnDeliver = func(Delivery) { delivered++ }
	var fails []SendFailure
	var failAt []sim.Time
	procs[0].OnSendFail = func(f SendFailure) {
		fails = append(fails, f)
		failAt = append(failAt, eng.Now())
	}
	eng.RunUntil(31 * sim.Microsecond) // off the beacon grid: the timestamp is the clock
	idle := eng.Pending()
	if err := procs[0].Send([]Message{{Dst: 1, Data: "lost-ack", Size: 64}}); err != nil {
		t.Fatal(err)
	}
	sentAt := eng.Now()
	eng.RunUntil(sentAt + cfg.SendFailTimeout - 1)
	if len(fails) != 0 {
		t.Fatalf("send failure reported early, at %v", failAt[0])
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (only the ACK is lost)", delivered)
	}
	eng.RunUntil(sentAt + 3*cfg.SendFailTimeout)
	if len(fails) != 1 {
		t.Fatalf("OnSendFail called %d times, want exactly once", len(fails))
	}
	if fails[0].Data != "lost-ack" || fails[0].TS != sentAt || failAt[0] != sentAt+cfg.SendFailTimeout {
		t.Fatalf("failure %+v reported at %v, want at ts + %v", fails[0], failAt[0], cfg.SendFailTimeout)
	}
	if c := hosts[0].findConn(0, 1); c.view().unacked[0].len() != 0 || c.inflight != 0 {
		t.Fatalf("timed-out packet still holds its window slot: %d unacked, inflight %d", c.view().unacked[0].len(), c.inflight)
	}
	// The timed-out scattering is the collector's, not counted live.
	if live := hosts[0].scats.live; live != [2]int{} {
		t.Fatalf("%v scatterings still counted live after the timeout", live)
	}
	// Same phase of the beacon interval as the idle sample.
	if got := eng.Pending(); got != idle {
		t.Fatalf("Pending = %d after the failure, want the idle %d", got, idle)
	}
}

// TestStopLeavesNoArmedTimer arms every kind of timer a host owns — beacon,
// RTO, doorbell, send-fail, ACK flush, recall — and stops both hosts: once
// the packets in flight have landed, the queue is empty.
func TestStopLeavesNoArmedTimer(t *testing.T) {
	cfg := DefaultConfig()
	eng, hosts, procs, wires := cablePair(cfg)
	// Host 1 hears everything but its ACKs are lost, so host 0's RTO and
	// send-fail timers stay armed.
	wires[1].drop = func(pkt *netsim.Packet) bool {
		return pkt.Kind == netsim.KindAck || pkt.Kind == netsim.KindRecallAck
	}
	eng.RunUntil(10 * sim.Microsecond)
	for i := 0; i < 4; i++ {
		if err := procs[0].Send([]Message{{Dst: 1, Data: i, Size: 64}}); err != nil {
			t.Fatal(err)
		}
		if err := procs[0].SendReliable([]Message{{Dst: 1, Data: i, Size: 64}}); err != nil {
			t.Fatal(err)
		}
	}
	// Doorbell armed now; a little later the data is out (RTO, send-fail
	// armed) and host 1 is batching ACKs (ACK-flush armed).
	c := hosts[0].findConn(0, 1)
	if !c.view().doorbell.isArmed() {
		t.Fatal("doorbell not armed after a partial frame was queued")
	}
	eng.RunUntil(eng.Now() + cfg.BatchWindow + cableDelay + 100)
	if !c.view().rto.isArmed() {
		t.Fatal("RTO not armed with reliable packets in flight")
	}
	if rc := hosts[1].findRconn(0, 1); rc == nil || rc.view().acks[0].idle() && rc.view().acks[1].idle() {
		t.Fatal("receiver is not batching ACKs")
	}
	// A recall in progress: its retransmission timer is armed too.
	hosts[0].abortScattering(hosts[0].outstanding[0])
	if len(hosts[0].recalls) != 1 {
		t.Fatalf("%d recalls pending, want 1", len(hosts[0].recalls))
	}
	// One more partial frame so a doorbell is armed at Stop as well.
	if err := procs[0].Send([]Message{{Dst: 1, Data: "held", Size: 64}}); err != nil {
		t.Fatal(err)
	}
	before := eng.Pending()
	hosts[0].Stop()
	hosts[1].Stop()
	if got := eng.Pending(); got >= before {
		t.Fatalf("Stop removed nothing from the queue: Pending %d → %d", before, got)
	}
	eng.RunUntil(eng.Now() + 2*cableDelay) // packets in flight land on stopped hosts
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending = %d after both hosts stopped, want 0: a stopped host left a timer armed", got)
	}
}

// TestSettleLeavesNoArmedTimer: once traffic has gone quiet, every pair has
// settled (its transient part back on a free list) and the queue holds what
// it held before there was any traffic.
func TestSettleLeavesNoArmedTimer(t *testing.T) {
	cfg := DefaultConfig()
	eng, hosts, procs, _ := cablePair(cfg)
	delivered := 0
	for _, p := range procs {
		p.OnDeliver = func(Delivery) { delivered++ }
	}
	// Sample both times at the same phase of the beacon interval.
	eng.RunUntil(20*cfg.BeaconInterval + 1000)
	idle := eng.Pending()
	for i := 0; i < 8; i++ {
		src, dst := i%2, 1-i%2
		var err error
		if i%4 < 2 {
			err = procs[src].Send([]Message{{Dst: netsim.ProcID(dst), Data: i, Size: 64}})
		} else {
			err = procs[src].SendReliable([]Message{{Dst: netsim.ProcID(dst), Data: i, Size: 64}})
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(2 * sim.Microsecond)
	}
	eng.RunUntil(60*cfg.BeaconInterval + 1000)
	if delivered != 8 {
		t.Fatalf("delivered %d of 8", delivered)
	}
	for _, h := range hosts {
		if len(h.connList()) == 0 || len(h.rconnList()) == 0 {
			t.Fatalf("host %d holds %d conns and %d rconns, want both sides of its pair", h.ID, len(h.connList()), len(h.rconnList()))
		}
		for _, c := range h.connList() {
			k := c.key
			if c.work != nil {
				t.Fatalf("host %d: conn %v did not settle", h.ID, k)
			}
		}
		for _, rc := range h.rconnList() {
			k := rc.key
			if rc.work != nil {
				t.Fatalf("host %d: rconn %v did not settle", h.ID, k)
			}
		}
	}
	if got := eng.Pending(); got != idle {
		t.Fatalf("Pending = %d after the traffic settled, want the pre-traffic %d", got, idle)
	}
}
