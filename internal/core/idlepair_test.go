package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"onepipe/internal/netsim"
	"onepipe/internal/race"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// pairPins are the observable results of pairStateRun.
type pairPins struct {
	deliveries, fails int
	// digest is the FNV-1a of every delivery and send failure in callback
	// order; cursors that of every pair's PSN cursors.
	digest, cursors uint64
	executed        uint64
	pkts            [8]uint64
	live            int
}

// pairStateRun is a 16-process, 8-host fabric under 1 % loss and 1.5 µs
// jitter: four 100 µs bursts of one- to three-way scatterings (reliable or
// best-effort, 64 B to three fragments) to random peers plus one
// six-message train per process for the doorbell to coalesce, each burst
// followed by a 200 µs silence, so pairs are met, settle and are met again.
// It also checks that the ConnsLive gauge counts every pair held.
func pairStateRun(t *testing.T) pairPins {
	ncfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 4, SpinesPerPod: 2, Cores: 1}, 2)
	ncfg.Seed = 29
	ncfg.Impair = netsim.Uniform(netsim.Impairment{Loss: 0.01, Jitter: 1500 * sim.Nanosecond})
	ccfg := DefaultConfig()
	ccfg.BatchWindow = 2 * sim.Microsecond
	cl := Deploy(netsim.New(ncfg), ccfg)
	np := len(cl.Procs)

	var pins pairPins
	d := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	for i, p := range cl.Procs {
		i := i
		p.OnDeliver = func(dl Delivery) {
			pins.deliveries++
			word(uint64(i))
			word(uint64(dl.TS))
			word(uint64(dl.Src))
			word(uint64(dl.Data.(int64)))
			if dl.Reliable {
				word(1)
			}
		}
		p.OnSendFail = func(f SendFailure) {
			pins.fails++
			word(1 << 40)
			word(uint64(f.TS))
			word(uint64(f.Dst))
			word(uint64(f.Data.(int64)))
		}
	}

	rng := rand.New(rand.NewSource(29))
	eng := cl.Net.Eng
	sizes := []int{64, 200, 1500, 3000}
	var nextID int64
	nextTrain := int64(1 << 32)
	send := func(pi int, ndst int, reliable bool, szIdx []int) {
		msgs := make([]Message, 0, ndst)
		seen := map[netsim.ProcID]bool{netsim.ProcID(pi): true}
		for len(msgs) < ndst {
			dst := netsim.ProcID(rng.Intn(np))
			if seen[dst] {
				continue
			}
			seen[dst] = true
			msgs = append(msgs, Message{Dst: dst, Data: nextID, Size: sizes[szIdx[len(msgs)]]})
			nextID++
		}
		if reliable {
			_ = cl.Proc(pi).SendReliable(msgs)
		} else {
			_ = cl.Proc(pi).Send(msgs)
		}
	}
	for _, base := range []sim.Time{0, 300 * sim.Microsecond, 600 * sim.Microsecond, 900 * sim.Microsecond} {
		for pi := 0; pi < np; pi++ {
			for k := 0; k < 10; k++ {
				pi, ndst, reliable := pi, 1+rng.Intn(3), rng.Intn(2) == 0
				szIdx := []int{rng.Intn(len(sizes)), rng.Intn(len(sizes)), rng.Intn(len(sizes))}
				at := base + sim.Time(rng.Intn(100_000))
				eng.At(at, func() { send(pi, ndst, reliable, szIdx) })
			}
			dst, at, reliable := netsim.ProcID((pi+1+rng.Intn(np-1))%np), base+sim.Time(rng.Intn(100_000)), rng.Intn(2) == 0
			for k := 0; k < 6; k++ {
				pi, id := pi, nextTrain
				nextTrain++
				eng.At(at+sim.Time(k)*300, func() {
					msgs := []Message{{Dst: dst, Data: id, Size: 64}}
					if reliable {
						_ = cl.Proc(pi).SendReliable(msgs)
					} else {
						_ = cl.Proc(pi).Send(msgs)
					}
				})
			}
		}
	}
	cl.Run(1500 * sim.Microsecond)

	pins.digest = d.Sum64()
	pins.executed = eng.Executed
	pins.pkts = cl.Net.Stats.PktsByKind
	c := fnv.New64a()
	cword := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		c.Write(buf[:])
	}
	type cursor struct {
		k   connKey
		psn [2]uint32
	}
	for _, h := range cl.Hosts {
		var send, recv []cursor
		for _, cn := range h.connList() {
			k := cn.key
			send = append(send, cursor{k, cn.nextPSN})
		}
		for _, rc := range h.rconnList() {
			k := rc.key
			recv = append(recv, cursor{k, rc.cursor()})
		}
		pins.live += len(h.connList()) + len(h.rconnList())
		for _, side := range [][]cursor{send, recv} {
			sort.Slice(side, func(i, j int) bool {
				a, b := side[i].k, side[j].k
				return a.src < b.src || a.src == b.src && a.dst < b.dst
			})
			cword(uint64(len(side)))
			for _, e := range side {
				cword(uint64(e.k.src)<<32 | uint64(uint32(e.k.dst)))
				cword(uint64(e.psn[0])<<32 | uint64(e.psn[1]))
			}
		}
	}
	pins.cursors = c.Sum64()
	if got := cl.TotalStats().ConnsLive; got != int64(pins.live) {
		t.Errorf("TotalStats().ConnsLive = %d, hosts hold %d pairs", got, pins.live)
	}
	return pins
}

// TestPairStatePins compares pairStateRun with values captured at commit
// 6948726 with idle eviction switched off, the last commit that had it — not
// with a second run of the same code. The run loses, retransmits, coalesces,
// settles and re-attaches pairs; the pins are the delivery and failure
// digest, the engine's executed-event count, netsim's packet counts by kind
// and every pair's final PSN cursors. They move only with a deliberate
// change to what core sends.
func TestPairStatePins(t *testing.T) {
	want := pairPins{
		deliveries: 1593, fails: 119,
		digest: 0x191f2430c68c1d17, cursors: 0xeefa241a000fa37a,
		executed: 77238,
		pkts:     [8]uint64{10364, 6925, 0, 12913, 129},
		live:     480,
	}
	if got := pairStateRun(t); got != want {
		t.Fatalf("pair-state run\n got %+v\nwant %+v (6948726)", got, want)
	}
}

// TestConnEvictionAccounting pins the ConnsLive gauge per host: two bursts
// of mixed reliable and best-effort sends across a long silence, so pairs
// settle in between and are met again, and each host's gauge must equal
// the conn and rconn entries it actually holds. (The name dates from when
// idle pairs could be evicted; attach is now the only thing that moves the
// gauge.)
func TestConnEvictionAccounting(t *testing.T) {
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 1}, 2)
	cfg.Seed = 99
	cfg.Impair = netsim.UniformJitter(500 * sim.Nanosecond)
	cl := Deploy(netsim.New(cfg), DefaultConfig())
	np := len(cl.Procs)
	delivered := 0
	for _, p := range cl.Procs {
		p.OnDeliver = func(Delivery) { delivered++ }
	}
	rng := rand.New(rand.NewSource(99))
	eng := cl.Net.Eng
	for _, base := range []sim.Time{0, 500 * sim.Microsecond} {
		for pi := 0; pi < np; pi++ {
			for k := 0; k < 12; k++ {
				pi, dst, reliable := pi, netsim.ProcID((pi+1+rng.Intn(np-1))%np), rng.Intn(2) == 0
				eng.After(base+sim.Time(rng.Intn(100_000)), func() {
					msgs := []Message{{Dst: dst, Data: int64(0), Size: 64}}
					if reliable {
						_ = cl.Proc(pi).SendReliable(msgs)
					} else {
						_ = cl.Proc(pi).Send(msgs)
					}
				})
			}
		}
	}
	cl.Run(1200 * sim.Microsecond)

	if delivered == 0 {
		t.Fatal("no deliveries at all")
	}
	var live int64
	for _, h := range cl.Hosts {
		held := int64(len(h.connList()) + len(h.rconnList()))
		live += held
		if h.Stats.ConnsLive != held {
			t.Fatalf("host %d: ConnsLive=%d but holds %d conns + %d rconns",
				h.ID, h.Stats.ConnsLive, len(h.connList()), len(h.rconnList()))
		}
	}
	if live == 0 {
		t.Fatal("no pair state held at the end of the run")
	}
	if got := cl.TotalStats().ConnsLive; got != live {
		t.Fatalf("TotalStats.ConnsLive=%d, hosts hold %d", got, live)
	}
}

// afterWire is a Wire without TimerEngine: a host on it takes the timers'
// After fallback, as udpnet's hosts and the benchmark's core probe do. The
// test moves packets and runs the queued closures by hand.
type afterWire struct {
	now   sim.Time
	sent  []*netsim.Packet
	after []func()
}

func (w *afterWire) Send(pkt *netsim.Packet)     { w.sent = append(w.sent, pkt) }
func (w *afterWire) Now() sim.Time               { return w.now }
func (w *afterWire) After(_ sim.Time, fn func()) { w.after = append(w.after, fn) }

// take returns the queued closures and empties the queue.
func (w *afterWire) take() []func() {
	fns := w.after
	w.after = nil
	return fns
}

// drop discards the sent packets and returns how many there were.
func (w *afterWire) drop() int {
	n := len(w.sent)
	w.sent = nil
	return n
}

// dataPkt is a single-fragment best-effort data packet.
func dataPkt(src, dst netsim.ProcID, psn uint32) *netsim.Packet {
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Src, pkt.Dst = netsim.KindData, src, dst
	pkt.PSN, pkt.MsgTS, pkt.EndOfMsg = psn, sim.Time(100+psn), true
	pkt.Size = 64 + netsim.HeaderBytes
	return pkt
}

// TestPooledPartCarriesNoStaleFiring: on the After fallback a stopped timer
// leaves its closure queued, and only the timer's epoch tells the closure it
// is stale. Pair A arms an RTO (send side) and an ACK flush (receive side),
// settles with both stopped, and its parts go to pairs B; A's closures then
// run and must not fire B's timers, which still fire themselves. The parts
// are reused, not remade, so a reuse that reset the epoch fails here.
func TestPooledPartCarriesNoStaleFiring(t *testing.T) {
	w := &afterWire{now: 10 * sim.Microsecond}
	h := NewHost(0, w, DefaultConfig())
	p := h.AddProc(0)

	// A: a reliable message 0 → 1 (RTO armed) and a best-effort packet from
	// 5 (ACK flush armed).
	if err := p.SendOpts([]Message{{Dst: 1, Size: 64}}, SendOptions{Reliable: true, NoBatch: true}); err != nil {
		t.Fatal(err)
	}
	h.HandlePacket(dataPkt(5, 0, 0))
	ca, ra := h.findConn(0, 1), h.findRconn(5, 0)
	sendPart, recvPart := ca.work, ra.work
	if sendPart == nil || recvPart == nil || !sendPart.rto.isArmed() || !recvPart.acks[0].timer.isArmed() {
		t.Fatal("pair A did not arm its RTO and ACK flush")
	}
	stale := w.take()
	w.drop()
	// Settle A: the ACK stops the RTO; a full batch flushes the ACKs early.
	h.HandlePacket(&netsim.Packet{Kind: netsim.KindAck, Src: 1, Dst: 0, Reliable: true, PSN: 0})
	for psn := uint32(1); psn < ackBatchMax; psn++ {
		h.HandlePacket(dataPkt(5, 0, psn))
	}
	if ca.work != nil || ra.work != nil {
		t.Fatal("pair A did not settle")
	}
	w.take()
	w.drop()

	// B takes A's parts.
	if err := p.SendOpts([]Message{{Dst: 2, Size: 64}}, SendOptions{Reliable: true, NoBatch: true}); err != nil {
		t.Fatal(err)
	}
	h.HandlePacket(dataPkt(6, 0, 0))
	cb, rb := h.findConn(0, 2), h.findRconn(6, 0)
	if cb.work != sendPart || rb.work != recvPart {
		t.Fatal("pair B did not reuse pair A's parts")
	}
	own := w.take()
	w.drop()

	for _, fn := range stale {
		fn()
	}
	if n := w.drop(); n != 0 || h.Stats.PktsRetx != 0 {
		t.Fatalf("A's stale closures made B send %d packets (%d retransmissions)", n, h.Stats.PktsRetx)
	}
	if !cb.work.rto.isArmed() || !rb.work.acks[0].timer.isArmed() || rb.work.acks[0].batch == nil {
		t.Fatal("A's stale closures disarmed or flushed B's timers")
	}
	for _, fn := range own {
		fn()
	}
	if h.Stats.PktsRetx != 1 || rb.work != nil {
		t.Fatalf("B's own timers: %d retransmissions, receive part attached %v; want 1 and settled",
			h.Stats.PktsRetx, rb.work != nil)
	}
}

// TestFreeListLeavesNothingArmed runs first contacts with every other
// host-1 ACK lost, so some pairs settle and others keep an RTO or a
// send-fail timer armed, then stops both hosts and drains the engine: every
// part on a free list is empty, disarmed and bound to no pair, and every
// part still attached is disarmed.
func TestFreeListLeavesNothingArmed(t *testing.T) {
	cfg := DefaultConfig()
	eng, hosts, procs, wires := cablePair(cfg)
	acks := 0
	wires[1].drop = func(pkt *netsim.Packet) bool {
		if pkt.Kind != netsim.KindAck {
			return false
		}
		acks++
		return acks%2 == 0
	}
	for i := 0; i < 24; i++ {
		dst := hosts[1].AddProc(netsim.ProcID(2 + i)).ID
		send := procs[0].Send
		if i%3 == 0 {
			send = procs[0].SendReliable
		}
		if err := send([]Message{{Dst: dst, Size: 64 + 1500*(i%2)}}); err != nil {
			t.Fatal(err)
		}
		eng.RunFor(2 * sim.Microsecond)
	}
	if len(hosts[0].connFree) == 0 || len(hosts[1].rconnFree) == 0 {
		t.Fatal("no part went back to a free list")
	}
	attached := 0
	for _, c := range hosts[0].connList() {
		if c.work != nil {
			attached++
		}
	}
	if attached == 0 {
		t.Fatal("every pair settled: nothing armed to stop")
	}
	hosts[0].Stop()
	hosts[1].Stop()
	eng.Drain()
	if n := eng.Pending(); n != 0 {
		t.Fatalf("Pending = %d after Drain", n)
	}
	for _, h := range hosts {
		for _, w := range h.connFree {
			if !w.idle() || w.rto.st.Handler() != nil || w.doorbell.st.Handler() != nil {
				t.Fatalf("host %d: a free send part is busy, armed or still bound to a pair", h.ID)
			}
		}
		for _, w := range h.rconnFree {
			for k := range w.bufs {
				if !w.bufs[k].idle() || !w.acks[k].idle() || w.acks[k].timer.st.Handler() != nil {
					t.Fatalf("host %d: a free receive part is busy, armed or still bound to a pair", h.ID)
				}
			}
		}
		for _, c := range h.connList() {
			k := c.key
			if w := c.work; w != nil && (w.rto.isArmed() || w.doorbell.isArmed()) {
				t.Fatalf("host %d: conn %v keeps a timer armed after Stop", h.ID, k)
			}
		}
		for _, rc := range h.rconnList() {
			k := rc.key
			if w := rc.work; w != nil && (w.acks[0].timer.isArmed() || w.acks[1].timer.isArmed()) {
				t.Fatalf("host %d: rconn %v keeps a timer armed after Stop", h.ID, k)
			}
		}
	}
}

// contactPair is cablePair with n never-contacted processes on host 1 (IDs
// 2 up), each with a one-message send slice of its own (core keeps a send's
// slice), and one delivery counter for them all.
func contactPair(cfg Config, n int) (eng *sim.Engine, hosts [2]*Host, src *Proc, msgs [][]Message, delivered *int) {
	eng, hosts, procs, _ := cablePair(cfg)
	delivered = new(int)
	onBatch := func(ds []Delivery) { *delivered += len(ds) }
	msgs = make([][]Message, n)
	for i := range msgs {
		p := hosts[1].AddProc(netsim.ProcID(2 + i))
		p.OnDeliverBatch = onBatch
		msgs[i] = []Message{{Dst: p.ID, Size: 64}}
	}
	return eng, hosts, procs[0], msgs, delivered
}

// idleWarm first contacts warm the pools, event queue and free lists before
// idlePairs more are measured.
const idleWarm, idlePairs = 16, 4096

// idlePairHeap runs first contacts on a contactPair, each one best-effort
// message to a never-seen process through delivery and the ACK, settling
// before the next, and reads the live heap after two collections (the
// packet pools' victim caches) before and after the last idlePairs of them.
// It returns the difference per pair and the two hosts.
func idlePairHeap(tb testing.TB, cfg Config) (float64, [2]*Host) {
	eng, hosts, src, msgs, delivered := contactPair(cfg, idleWarm+idlePairs)
	contact := func(i int) {
		if err := src.Send(msgs[i]); err != nil {
			tb.Fatal(err)
		}
		eng.RunFor(4 * cfg.BeaconInterval)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < idleWarm; i++ {
		contact(i)
	}
	before := heap()
	for i := idleWarm; i < idleWarm+idlePairs; i++ {
		contact(i)
	}
	after := heap()
	runtime.KeepAlive(hosts)
	runtime.KeepAlive(msgs)
	if *delivered != idleWarm+idlePairs {
		tb.Fatalf("%d of %d delivered", *delivered, idleWarm+idlePairs)
	}
	return float64(after-before) / idlePairs, hosts
}

// TestIdlePairHeapFootprint measures what a settled pair keeps on the heap
// (idlePairHeap). The difference per pair is the conn, the rconn and their
// slots in the processes' pair tables (106 B: 64 + 24 for the slab entries,
// about 18 for the slots, a 4-byte table of its own in an 8-byte size class
// for each receiving process and the sender's table grown by a quarter;
// 130 B with a heap object per conn and rconn and 8-byte table slots, 184 B
// when the tables were maps, 592 B when every pair kept its queues, rings,
// timers and accumulators); the parts are back on the free lists, which
// hold one of each.
func TestIdlePairHeapFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	per, hosts := idlePairHeap(t, DefaultConfig())
	t.Logf("%.1f heap bytes per settled pair (conn %d B, rconn %d B)", per, unsafe.Sizeof(conn{}), unsafe.Sizeof(rconn{}))
	for _, c := range hosts[0].connList() {
		if c.work != nil {
			t.Fatal("a pair did not settle")
		}
	}
	for _, rc := range hosts[1].rconnList() {
		if rc.work != nil {
			t.Fatal("a receive pair did not settle")
		}
	}
	if len(hosts[0].connFree) != 1 || len(hosts[1].rconnFree) != 1 {
		t.Fatalf("free lists hold %d and %d parts, want one each", len(hosts[0].connFree), len(hosts[1].rconnFree))
	}
	if per > 115 {
		t.Fatalf("%.1f heap bytes per settled pair, want at most 115", per)
	}
}
