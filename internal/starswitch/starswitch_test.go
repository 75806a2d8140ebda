package starswitch

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// newPorts builds an unimpaired, piggybacking switch with ports 0..n-1.
func newPorts(n int) *Core {
	c := New(nil, 1)
	for i := 0; i < n; i++ {
		c.Admit(i)
	}
	return c
}

func beacon(c *Core, from int, be, cc sim.Time) {
	c.Ingress(from, 0, &netsim.Packet{Kind: netsim.KindBeacon, BarrierBE: be, BarrierC: cc}, 0)
}

func data(be, cc sim.Time) *netsim.Packet {
	return &netsim.Packet{Kind: netsim.KindData, BarrierBE: be, BarrierC: cc}
}

// relayed runs one beacon tick and returns the ports that got a beacon.
func relayed(c *Core) []int {
	var got []int
	c.Relay(func(p int, _, _ sim.Time) { got = append(got, p) })
	return got
}

// TestAggregateIsMinOverLivePorts drives an N-port core through a manual
// schedule of register updates, admissions and drains, checking after every
// step that the output equals the minimum over admitted, non-drained ports —
// except where the monotone clamp must hold it (admitting a laggard).
func TestAggregateIsMinOverLivePorts(t *testing.T) {
	type step struct {
		name          string
		do            func(c *Core)
		wantBE, wantC sim.Time
	}
	steps := []step{
		{"fresh ports aggregate to zero", func(c *Core) {}, 0, 0},
		{"one port ahead does not move the min", func(c *Core) { beacon(c, 0, 100, 90) }, 0, 0},
		{"all but one ahead", func(c *Core) { beacon(c, 1, 120, 80) }, 0, 0},
		{"last port catches up: min is per plane", func(c *Core) { beacon(c, 2, 110, 100) }, 100, 80},
		{"stale stamp never lowers a register", func(c *Core) { beacon(c, 0, 50, 50) }, 100, 80},
		{"data stamps advance ingress registers too", func(c *Core) {
			c.Ingress(0, 1, data(130, 95), 0)
			c.Ingress(1, 0, data(125, 97), 0)
		}, 110, 95},
		{"admission seeds at the aggregate", func(c *Core) { c.Admit(3) }, 110, 95},
		{"the new port now holds the minimum", func(c *Core) {
			beacon(c, 0, 200, 200)
			beacon(c, 1, 200, 200)
			beacon(c, 2, 200, 200)
		}, 110, 95},
		{"draining the minimum port un-caps the barrier", func(c *Core) { c.Drain(3) }, 200, 200},
		{"a drained port's stragglers resurrect nothing", func(c *Core) {
			beacon(c, 3, 999, 999)
			beacon(c, 0, 210, 205)
		}, 200, 200},
		{"drained ports cannot rejoin", func(c *Core) {
			if c.Admit(3) {
				t.Error("re-admitted a drained port")
			}
			beacon(c, 1, 220, 220)
			beacon(c, 2, 220, 220)
		}, 210, 205},
	}
	c := newPorts(3)
	for _, s := range steps {
		s.do(c)
		if be, cc := c.Aggregate(); be != s.wantBE || cc != s.wantC {
			t.Fatalf("%s: aggregate (%d,%d), want (%d,%d)", s.name, be, cc, s.wantBE, s.wantC)
		}
	}
}

// TestOutputNeverRegresses admits lagging ports at arbitrary moments of a
// loop in which the incumbents keep advancing: the relayed barrier must be monotone
// on both planes through every admission and drain.
func TestOutputNeverRegresses(t *testing.T) {
	c := newPorts(2)
	var lastBE, lastC sim.Time
	live, next := []int{0, 1}, 2
	for tick := sim.Time(1); tick <= 200; tick++ {
		for i, p := range live {
			beacon(c, p, tick*10+sim.Time(i), tick*10-5)
		}
		switch {
		case tick%40 == 0:
			if !c.Admit(next) {
				t.Fatalf("tick %d: fresh port %d not admitted", tick, next)
			}
			beacon(c, next, 1, 1) // a laggard's stale stamp cannot undercut its seed
			live = append(live, next)
			next++
		case tick%70 == 0:
			c.Drain(live[0])
			live = live[1:]
		}
		be, cc := c.Aggregate()
		if be < lastBE || cc < lastC {
			t.Fatalf("tick %d: aggregate regressed (%d,%d) -> (%d,%d)", tick, lastBE, lastC, be, cc)
		}
		lastBE, lastC = be, cc
	}
	if lastBE == 0 {
		t.Fatal("barrier never advanced")
	}
}

// TestIngressVerdicts is the data-plane decision table: who gets forwarded
// (restamped with the aggregate), who is dropped, and what each case does to
// the registers and counters.
func TestIngressVerdicts(t *testing.T) {
	cases := []struct {
		name          string
		setup         func(c *Core)
		from, dst     int
		kind          netsim.Kind
		wantForward   bool
		wantDropped   uint64
		wantFromMoved bool // the uplink's registers advanced from the stamp
	}{
		{name: "data between live ports is forwarded", from: 0, dst: 1, kind: netsim.KindData,
			wantForward: true, wantFromMoved: true},
		{name: "beacon is consumed", from: 0, dst: 1, kind: netsim.KindBeacon, wantFromMoved: true},
		{name: "commit is consumed", from: 0, dst: 1, kind: netsim.KindCommit, wantFromMoved: true},
		{name: "never-admitted source updates nothing", from: 7, dst: 1, kind: netsim.KindData,
			wantDropped: 1},
		{name: "never-admitted source beacon updates nothing", from: 7, dst: 1, kind: netsim.KindBeacon,
			wantDropped: 1},
		{name: "never-admitted destination", from: 0, dst: 7, kind: netsim.KindData,
			wantDropped: 1, wantFromMoved: true},
		{name: "drained destination", setup: func(c *Core) { c.Drain(1) }, from: 0, dst: 1,
			kind: netsim.KindData, wantDropped: 1, wantFromMoved: true},
		{name: "drained source", setup: func(c *Core) { c.Drain(0) }, from: 0, dst: 1,
			kind: netsim.KindData, wantDropped: 1},
		{name: "blackholed source: data dropped, registers still advance",
			setup: func(c *Core) { c.SetBlackhole(0, true) }, from: 0, dst: 1,
			kind: netsim.KindData, wantDropped: 1, wantFromMoved: true},
		{name: "blackholed source: beacons still advance its registers",
			setup: func(c *Core) { c.SetBlackhole(0, true) }, from: 0, dst: 1,
			kind: netsim.KindBeacon, wantFromMoved: true},
		{name: "blackholed destination", setup: func(c *Core) { c.SetBlackhole(1, true) }, from: 0, dst: 1,
			kind: netsim.KindData, wantDropped: 1, wantFromMoved: true},
		{name: "healed blackhole forwards again",
			setup: func(c *Core) { c.SetBlackhole(1, true); c.SetBlackhole(1, false) }, from: 0, dst: 1,
			kind: netsim.KindData, wantForward: true, wantFromMoved: true},
	}
	for _, tc := range cases {
		c := newPorts(3)
		beacon(c, 1, 40, 30)
		beacon(c, 2, 60, 50)
		if tc.setup != nil {
			tc.setup(c)
		}
		ports := len(c.ports)
		pkt := &netsim.Packet{Kind: tc.kind, BarrierBE: 70, BarrierC: 65}
		forward, _ := c.Ingress(tc.from, tc.dst, pkt, 0)
		if forward != tc.wantForward {
			t.Errorf("%s: forward=%v, want %v", tc.name, forward, tc.wantForward)
		}
		if got := c.Stats().Dropped; got != tc.wantDropped {
			t.Errorf("%s: Dropped=%d, want %d", tc.name, got, tc.wantDropped)
		}
		if len(c.ports) != ports || len(c.index) != ports {
			t.Errorf("%s: ingress grew the port table to %d", tc.name, len(c.ports))
		}
		if i, ok := c.index[tc.from]; ok {
			be, cc := c.regs.Reg(i)
			if moved := be == 70 && cc == 65; moved != tc.wantFromMoved {
				t.Errorf("%s: uplink registers (%d,%d), moved=%v want %v", tc.name, be, cc, moved, tc.wantFromMoved)
			}
		}
		if forward {
			// Restamp-on-forward: the packet leaves with the aggregate,
			// not with the sender's own stamp.
			if be, cc := c.Aggregate(); pkt.BarrierBE != be || pkt.BarrierC != cc {
				t.Errorf("%s: forwarded with (%d,%d), aggregate is (%d,%d)", tc.name, pkt.BarrierBE, pkt.BarrierC, be, cc)
			}
			if c.Stats().Forwarded != 1 {
				t.Errorf("%s: Forwarded=%d, want 1", tc.name, c.Stats().Forwarded)
			}
		}
	}
}

// TestBeaconSuppression: a downlink whose forwarded traffic already carried
// the aggregate gets no standalone beacon; every other live downlink does,
// once per advance.
func TestBeaconSuppression(t *testing.T) {
	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	c := newPorts(3)
	if got := relayed(c); len(got) != 0 {
		t.Fatalf("beacons %v relayed before any barrier exists", got)
	}
	for p := 0; p < 3; p++ {
		beacon(c, p, 100, 100)
	}
	// Port 2's downlink carries a restamped data packet; the others are idle.
	if fwd, _ := c.Ingress(0, 2, data(100, 100), 0); !fwd {
		t.Fatal("data not forwarded")
	}
	if got := relayed(c); !same(got, []int{0, 1}) {
		t.Fatalf("relayed to %v, want [0 1] (downlink 2 already carried the aggregate)", got)
	}
	if got := c.Stats().BeaconsSuppressed; got != 4 { // 3 on the empty tick + port 2
		t.Fatalf("BeaconsSuppressed=%d, want 4", got)
	}
	if got := relayed(c); len(got) != 0 {
		t.Fatalf("relayed to %v with nothing new to say", got)
	}
	// The aggregate advances past what downlink 2 carried: it needs a beacon
	// again. A drained port never gets one.
	for p := 0; p < 3; p++ {
		beacon(c, p, 200, 150)
	}
	c.Drain(1)
	if got := relayed(c); !same(got, []int{0, 2}) {
		t.Fatalf("relayed to %v, want [0 2]", got)
	}
}

// TestSeedDeterminesDrops pins the seed contract the live fabrics expose as
// Config.Seed: equal seeds give identical drop (and jitter) sequences, so a
// lossy live run can be replayed; different seeds give different ones.
func TestSeedDeterminesDrops(t *testing.T) {
	run := func(seed int64) (drops []bool, delays []sim.Time) {
		c := New(&netsim.Impairment{Loss: 0.3, Jitter: 1000}, seed)
		c.Admit(0)
		c.Admit(1)
		for i := 0; i < 64; i++ {
			fwd, d := c.Ingress(0, 1, data(0, 0), sim.Time(i))
			drops = append(drops, !fwd)
			delays = append(delays, d)
		}
		if s := c.Stats(); s.Forwarded+s.Dropped != 64 || s.Dropped == 0 || s.Forwarded == 0 {
			t.Fatalf("seed %d: implausible counters %+v at 30%% loss", seed, s)
		}
		return
	}
	da, ja := run(7)
	db, jb := run(7)
	dc, _ := run(8)
	differs := false
	for i := range da {
		if da[i] != db[i] || ja[i] != jb[i] {
			t.Fatalf("packet %d: same seed, different fate", i)
		}
		if da[i] != dc[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced identical drop sequences")
	}
}
