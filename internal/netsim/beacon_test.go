package netsim

import (
	"slices"
	"testing"

	"onepipe/internal/race"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// idleFabric builds a network with perfect clocks whose hosts are played by
// the test: every interval each host that is not silenced puts one beacon
// carrying the current time on its uplink, from a self-rescheduling event
// (the shape of the benchmark's beacon probe). No host receivers are
// attached. stop ends the injection so the queue can drain.
func idleFabric(topo topology.ClosConfig, mut func(*Config)) (n *Network, silence func(h int), stop func()) {
	cfg := DefaultConfig(topo, 1)
	cfg.Clock.MaxOffset, cfg.Clock.MaxDriftPPM = 0, 0
	if mut != nil {
		mut(&cfg)
	}
	n = New(cfg)
	hosts := make([]int, len(n.G.Hosts))
	silent := make([]bool, len(hosts))
	stopped := false
	var tick func(a, b any)
	tick = func(a, b any) {
		h := *a.(*int)
		if stopped || silent[h] {
			return
		}
		pkt := n.pool.Get()
		pkt.Kind, pkt.Src, pkt.Size = KindBeacon, ProcID(h), BeaconBytes
		pkt.BarrierBE, pkt.BarrierC = n.Eng.Now(), n.Eng.Now()
		n.SendFromHost(h, pkt)
		n.Eng.After2(cfg.BeaconInterval, tick, a, nil)
	}
	for h := range hosts {
		hosts[h] = h
		n.Eng.After2(cfg.BeaconInterval, tick, &hosts[h], nil)
	}
	return n, func(h int) { silent[h] = true }, func() { stopped = true }
}

// TestBeaconPlaneEventBudget pins what the beacon plane costs the engine on
// the benchmark's 512-host sparse-fabric topology when nothing but beacons
// moves: per interval, one arrival per link (1 856), the test's own two
// events per host (2 × 512: the injection and the uplink transmit), one
// trigger and one fire per switch node (2 × 136 — on an idle synchronized
// fabric a node's egress links all share a trigger instant, so each node is
// one wave), the fallback scan and the dead-link scanner. A per-link relay
// event or a per-link fallback ticker coming back (3 × 1 344 more) fails
// here rather than in a benchmark run.
func TestBeaconPlaneEventBudget(t *testing.T) {
	n, _, _ := idleFabric(topology.ClosConfig{Pods: 8, RacksPerPod: 4, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8}, nil)
	if got := len(n.tickers); got != 2 {
		t.Errorf("New armed %d tickers, want 2 (fallback scan, dead-link scanner)", got)
	}
	hosts, links, switches := len(n.G.Hosts), len(n.G.Links), len(n.G.Nodes)-len(n.G.Hosts)
	want := uint64(links + 2*hosts + 2*switches + 2)
	if want != 3154 {
		t.Fatalf("topology changed under the test: budget %d events per interval, want 3154", want)
	}
	n.RunFor(20 * n.Cfg.BeaconInterval)
	prev, off := n.ExecutedEvents(), 0
	allocs := testing.AllocsPerRun(100, func() {
		n.RunFor(n.Cfg.BeaconInterval)
		now := n.ExecutedEvents()
		if now-prev != want {
			off++
		}
		prev = now
	})
	if off != 0 {
		t.Errorf("%d of 101 intervals did not execute exactly %d events", off, want)
	}
	if allocs != 0 && !race.Enabled { // the detector's instrumentation allocates
		t.Errorf("%v allocations per interval, want 0", allocs)
	}
}

// TestAblatedRelayBeaconsEveryInterval: with event relays ablated away the
// fallback scan is the relay, and the paper's per-link idle timer sends one
// beacon per switch link per interval. (A holdoff of one interval measured
// from the previous beacon's transmission, a processing delay after its
// tick, skipped every other tick: 0.5.)
func TestAblatedRelayBeaconsEveryInterval(t *testing.T) {
	n, _, _ := idleFabric(topology.Testbed(), func(c *Config) { c.DisableEventRelay = true })
	const intervals = 100
	n.RunFor(40 * n.Cfg.BeaconInterval)
	before := n.Stats.PktsByKind[KindBeacon]
	n.RunFor(intervals * n.Cfg.BeaconInterval)
	hosts := len(n.G.Hosts)
	fromSwitches := n.Stats.PktsByKind[KindBeacon] - before - uint64(intervals*hosts)
	if want := uint64(intervals * (len(n.G.Links) - hosts)); fromSwitches != want {
		t.Errorf("%d switch beacons in %d intervals (%.3f per link per interval), want %d (1.000)",
			fromSwitches, intervals, float64(fromSwitches)/float64(want), want)
	}
}

// TestSilentHostReportsWholeFabric characterises a known gap; it does not
// endorse it. fireBeacon suppresses a beacon that carries no barrier news,
// fallback beacons included, so a switch whose minimum stalls goes silent
// instead of repeating its barrier, and so does everything downstream of
// it. When one host of an idle Testbed() merely stops beaconing — every
// link up — the dead-link scanner therefore reports, in a single scan ten
// intervals later, that host's uplink and all 57 switch links that sit
// behind the stalled minimum (every switch link but the three racks and one
// pod whose up halves still hear all their hosts). The fabric revives with
// the next arrivals, and the controller is shielded only because it checks
// reports against the graph. The fix — keep-alive beacons on the fallback
// path — changes packets on the wire and belongs with gray-failure handling
// (ROADMAP item 1: delay and report, never misorder). When it lands this
// count must fall to 1, the silent uplink; it must never rise.
func TestSilentHostReportsWholeFabric(t *testing.T) {
	n, silence, _ := idleFabric(topology.Testbed(), nil)
	type report struct {
		at   sim.Time
		link topology.LinkID
	}
	var reports []report
	n.OnLinkDead = func(l topology.Link) {
		reports = append(reports, report{n.Eng.Now(), l.ID})
	}
	n.RunFor(50 * n.Cfg.BeaconInterval)
	if len(reports) != 0 {
		t.Fatalf("%d links reported dead on a healthy idle fabric", len(reports))
	}
	silence(0)
	n.RunFor((DeadLinkBeacons + 5) * n.Cfg.BeaconInterval)
	if len(reports) != 58 {
		t.Fatalf("%d links reported dead after host 0 fell silent, want today's 58 (1 silent + 57 false positives)", len(reports))
	}
	uplink := false
	for _, r := range reports {
		if r.at != reports[0].at {
			t.Errorf("link %d reported at %v, the first at %v: want one scan", r.link, r.at, reports[0].at)
		}
		uplink = uplink || r.link == n.uplink(0).id
	}
	if !uplink {
		t.Error("the silent host's own uplink is not among the reports")
	}
	// The false positives heal themselves: arrivals re-admit the links.
	n.RunFor(20 * n.Cfg.BeaconInterval)
	dead := 0
	for _, l := range n.links {
		if !l.alive {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("%d links still out of aggregation 20 intervals later, want only the silent uplink", dead)
	}
}

// waveRig is a one-rack fabric with every periodic source off, so the only
// events are the ones a test causes. The ToR's down half and its twelve host
// downlinks are the hand-built node the wave tests arm; got logs the beacons
// the hosts are handed, in order.
type waveRig struct {
	n    *Network
	node *nodeState
	out  []*linkState
	got  []waveRx
}

type waveRx struct {
	host      int
	at, be, c sim.Time
}

const waveRigHosts = 12

func newWaveRig(t *testing.T) *waveRig {
	t.Helper()
	cfg := DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 1, HostsPerRack: waveRigHosts, SpinesPerPod: 1, Cores: 1}, 1)
	cfg.DisableBeacons = true
	n := New(cfg)
	r := &waveRig{n: n, node: n.nodes[n.G.Link(n.G.In[n.G.Host(0)][0]).From]}
	for h, lid := range r.node.out {
		h := h
		if n.G.Link(lid).To != n.G.Host(h) {
			t.Fatalf("egress %d of the ToR's down half does not lead to host %d", h, h)
		}
		r.out = append(r.out, n.links[lid])
		n.AttachHost(h, func(p *Packet) {
			r.got = append(r.got, waveRx{h, n.Eng.Now(), p.BarrierBE, p.BarrierC})
			n.pool.Put(p)
		})
	}
	if len(r.out) != waveRigHosts {
		t.Fatalf("the ToR's down half has %d egress links, want %d", len(r.out), waveRigHosts)
	}
	// Off time zero, so a rate limit can lie on either side of now.
	n.Eng.RunUntil(10 * cfg.BeaconInterval)
	if n.Eng.Pending() != 0 {
		t.Fatalf("%d events pending on a fabric with beacons off", n.Eng.Pending())
	}
	return r
}

// setBarriers raises every input register of the node.
func (r *waveRig) setBarriers(be, c sim.Time) {
	for _, lid := range r.n.G.In[r.node.id] {
		r.node.regs.Raise(r.n.links[lid].slot, be, c)
	}
}

// deferBy makes link i's rate limit put its next trigger d after now.
func (r *waveRig) deferBy(i int, d sim.Time) {
	r.out[i].lastBeaconTx = r.n.Eng.Now() + d - r.n.Cfg.BeaconInterval + r.n.beaconProcDelay()
}

func (r *waveRig) step(t *testing.T, events int) {
	t.Helper()
	for i := 0; i < events; i++ {
		if !r.n.Eng.Step() {
			t.Fatalf("queue empty after %d of %d steps", i, events)
		}
	}
}

// settled checks that no link is left claimed or chained.
func (r *waveRig) settled(t *testing.T) {
	t.Helper()
	for i, ls := range r.out {
		if ls.beaconPending || ls.waveNext != nil {
			t.Errorf("egress %d: beaconPending=%v chained=%v after its wave fired", i, ls.beaconPending, ls.waveNext != nil)
		}
	}
}

// wantHosts checks which hosts were handed a beacon, in order.
func (r *waveRig) wantHosts(t *testing.T, want ...int) {
	t.Helper()
	got := make([]int, len(r.got))
	for i, g := range r.got {
		got[i] = g.host
	}
	if !slices.Equal(got, want) {
		t.Fatalf("beacons reached hosts %v, want %v", got, want)
	}
}

// Links that share a trigger instant are one wave: one trigger event, one
// fire event, the barriers captured once at the trigger, beacons emitted in
// link order.
func TestWaveSharedTrigger(t *testing.T) {
	r := newWaveRig(t)
	n, t0, proc := r.n, r.n.Eng.Now(), r.n.beaconProcDelay()
	r.setBarriers(1000, 900)
	n.scheduleRelays(r.node)
	if got := n.Eng.Pending(); got != 1 {
		t.Fatalf("%d events armed for twelve links with one trigger instant, want 1", got)
	}
	r.step(t, 1) // trigger
	if n.Eng.Now() != t0 || n.Eng.Pending() != 1 {
		t.Fatalf("after the trigger: now %v pending %d, want %v and the one fire event", n.Eng.Now(), n.Eng.Pending(), t0)
	}
	r.setBarriers(2000, 1900) // after the capture: not this wave's news
	r.step(t, 1)              // fire
	if n.Eng.Now() != t0+proc || n.Eng.Pending() != len(r.out) {
		t.Fatalf("after the fire: now %v pending %d, want %v and %d arrivals", n.Eng.Now(), n.Eng.Pending(), t0+proc, len(r.out))
	}
	r.settled(t)
	n.Eng.Run()
	r.wantHosts(t, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	for _, g := range r.got {
		if g.be != 1000 || g.c != 900 || g.at != r.got[0].at {
			t.Errorf("host %d: beacon (%v, %v) at %v, want (1000, 900) at %v", g.host, g.be, g.c, g.at, r.got[0].at)
		}
	}
	for i, ls := range r.out {
		if ls.lastBeaconTx != t0+proc {
			t.Errorf("egress %d: lastBeaconTx %v, want %v", i, ls.lastBeaconTx, t0+proc)
		}
	}
}

// Links the rate limit defers to another instant form a second wave, which
// captures its barriers at its own trigger, not at arming time.
func TestWaveDistinctTriggers(t *testing.T) {
	r := newWaveRig(t)
	n, e0 := r.n, r.n.Eng.Executed
	for i := 1; i < len(r.out); i += 2 {
		r.deferBy(i, sim.Microsecond)
	}
	r.setBarriers(1000, 900)
	n.scheduleRelays(r.node)
	if got := n.Eng.Pending(); got != 2 {
		t.Fatalf("%d events armed for two trigger instants, want 2", got)
	}
	r.step(t, 2) // first wave: trigger, fire
	r.setBarriers(2000, 1900)
	n.Eng.Run()
	r.settled(t)
	r.wantHosts(t, 0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11)
	for i, g := range r.got {
		wantBE, wantAt := sim.Time(1000), r.got[0].at
		if i >= len(r.out)/2 {
			wantBE, wantAt = 2000, r.got[0].at+sim.Microsecond
		}
		if g.be != wantBE || g.at != wantAt {
			t.Errorf("host %d: barrier %v at %v, want %v at %v", g.host, g.be, g.at, wantBE, wantAt)
		}
	}
	// Two waves of two events, then an arrival and a delivery per beacon.
	if got, want := n.Eng.Executed-e0, uint64(2*2+2*len(r.out)); got != want {
		t.Errorf("%d events executed, want %d", got, want)
	}
}

// More distinct trigger instants than waveLeaders: the surplus links are
// one-link waves through the same code, also when two of them share an
// instant, and every link still fires once at its own instant.
func TestWaveLeaderOverflow(t *testing.T) {
	r := newWaveRig(t)
	n := r.n
	const step = 100 * sim.Nanosecond
	// Trigger instant of each link, in steps after now: links 0-7 lead the
	// eight waves there is room for, link 10 chains onto link 0's, and links
	// 8, 9 (sharing an instant) and 11 find the array full.
	instants := [waveRigHosts]sim.Time{0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 0, 9}
	if waveLeaders != 8 {
		t.Fatalf("waveLeaders = %d; this test lays out its instants for 8", waveLeaders)
	}
	for i, k := range instants {
		if k > 0 {
			r.deferBy(i, k*step)
		}
	}
	r.setBarriers(1000, 900)
	n.scheduleRelays(r.node)
	if got := n.Eng.Pending(); got != 11 {
		t.Fatalf("%d events armed, want 11 (eight led waves, one of them two links long, and three one-link waves)", got)
	}
	n.Eng.Run()
	r.settled(t)
	r.wantHosts(t, 0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11) // trigger order, link order inside an instant
	for _, g := range r.got {
		if want := r.got[0].at + instants[g.host]*step; g.at != want {
			t.Errorf("host %d: beacon at %v, want %v", g.host, g.at, want)
		}
	}
}

// A member that is drained, or whose link or node dies, between the wave's
// trigger and its fire drops out; the rest of the chain still fires with the
// captured barriers — also when the member lost is the one holding them.
func TestWaveMemberLostBeforeFire(t *testing.T) {
	cases := []struct {
		name string
		lose func(r *waveRig)
		want []int
	}{
		{"drained", func(r *waveRig) { r.n.DrainLink(r.out[3].id) }, []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}},
		{"head link killed", func(r *waveRig) { r.n.G.KillLink(r.out[0].id) }, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{"tail host killed", func(r *waveRig) { r.n.G.KillNode(r.n.G.Host(11)) }, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"node killed", func(r *waveRig) { r.n.G.KillNode(r.node.id) }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newWaveRig(t)
			r.setBarriers(1000, 900)
			r.n.scheduleRelays(r.node)
			r.step(t, 1) // trigger
			tc.lose(r)
			r.n.Eng.Run()
			r.settled(t)
			r.wantHosts(t, tc.want...)
			for _, g := range r.got {
				if g.be != 1000 || g.c != 900 {
					t.Errorf("host %d: beacon (%v, %v), want the captured (1000, 900)", g.host, g.be, g.c)
				}
			}
		})
	}
}

// Stop with waves in flight: the waves already armed run to completion, the
// queue then drains, and no link is left claimed.
func TestStopWithWavesInFlight(t *testing.T) {
	n, _, stop := idleFabric(topology.Testbed(), nil)
	n.RunFor(20 * n.Cfg.BeaconInterval)
	chained := func() (c int) {
		for _, ls := range n.links {
			if ls.waveNext != nil {
				c++
			}
		}
		return c
	}
	for steps := 0; chained() == 0; steps++ {
		if steps > 10000 || !n.Eng.Step() {
			t.Fatal("no multi-link wave formed on an idle fabric")
		}
	}
	n.Stop()
	stop()
	for steps := 0; n.Eng.Step(); steps++ {
		if steps > 100000 {
			t.Fatal("queue did not drain after Stop")
		}
	}
	for _, ls := range n.links {
		if ls.beaconPending || ls.waveNext != nil {
			t.Fatalf("link %d left beaconPending=%v chained=%v after the queue drained", ls.id, ls.beaconPending, ls.waveNext != nil)
		}
	}
}
