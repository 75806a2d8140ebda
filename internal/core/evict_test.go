package core

import (
	"math/rand"
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// runBurstyWorkload deploys a small cluster and drives two traffic bursts
// separated by a long silence — the shape that lets idle-connection eviction
// engage between bursts and forces re-establishment (with PSN continuity)
// when the second burst reuses the same process pairs. The entire schedule
// is derived from seed, so two runs differing only in evict are packet-for-
// packet comparable.
func runBurstyWorkload(t *testing.T, seed int64, evict sim.Time) ([][]propRec, *Cluster) {
	t.Helper()
	cfg := netsim.DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 1}, 2)
	cfg.Seed = seed
	cfg.Impair = netsim.UniformJitter(500 * sim.Nanosecond)
	ccfg := DefaultConfig()
	ccfg.ConnIdleEvict = evict
	cl := Deploy(netsim.New(cfg), ccfg)
	np := len(cl.Procs)
	logs := make([][]propRec, np)
	for i, p := range cl.Procs {
		i := i
		p.OnDeliver = func(d Delivery) {
			logs[i] = append(logs[i], propRec{ts: d.TS, src: d.Src, id: d.Data.(int64), reliable: d.Reliable})
		}
	}

	rng := rand.New(rand.NewSource(seed))
	eng := cl.Net.Eng
	var nextID int64
	send := func(pi int) {
		id := nextID
		nextID++
		dst := netsim.ProcID(rng.Intn(np))
		for int(dst) == pi {
			dst = netsim.ProcID(rng.Intn(np))
		}
		msgs := []Message{{Dst: dst, Data: id, Size: 64}}
		if rng.Intn(2) == 0 {
			_ = cl.Proc(pi).SendReliable(msgs)
		} else {
			_ = cl.Proc(pi).Send(msgs)
		}
	}
	// Burst 1: [0, 100µs). Silence: [100µs, 500µs) — several eviction
	// periods. Burst 2: [500µs, 600µs), reusing the same pairs.
	for burst, base := range []sim.Time{0, 500 * sim.Microsecond} {
		_ = burst
		for pi := 0; pi < np; pi++ {
			pi := pi
			for k := 0; k < 12; k++ {
				eng.After(base+sim.Time(rng.Intn(100_000))*sim.Nanosecond, func() { send(pi) })
			}
		}
	}
	cl.Run(1200 * sim.Microsecond)
	return logs, cl
}

// TestConnEvictionTransparent is the lazy-lifecycle acceptance test at the
// core level: with ConnIdleEvict armed, idle connections are actually
// reclaimed during the inter-burst silence, re-established connections
// resume PSN-continuously on the second burst (a reset PSN would surface as
// a duplicate drop or a reordering below), and the per-process delivery
// logs are identical to the eviction-off run — eviction is invisible to the
// application. The sweep also reclaims the receive-side state, which the
// eviction-off run keeps for every peer that ever sent.
func TestConnEvictionTransparent(t *testing.T) {
	const seed = 77
	base, baseCl := runBurstyWorkload(t, seed, 0)
	got, cl := runBurstyWorkload(t, seed, 120*sim.Microsecond)

	kept := 0
	for _, h := range baseCl.Hosts {
		kept += len(h.rconns)
	}
	if kept == 0 {
		t.Fatal("eviction-off run holds no receive state: nothing for the sweep to reclaim")
	}
	for _, h := range cl.Hosts {
		if n := len(h.rconns); n != 0 {
			t.Fatalf("host %d still holds %d rconns after the idle sweep", h.ID, n)
		}
	}

	ts := cl.TotalStats()
	if ts.ConnsEvicted == 0 {
		t.Fatal("no connection was evicted across the silence — lifecycle never engaged")
	}
	if ts.MsgsDelivered == 0 {
		t.Fatal("no deliveries at all")
	}
	for i := range base {
		if len(base[i]) != len(got[i]) {
			t.Fatalf("proc %d: %d deliveries with eviction, %d without", i, len(got[i]), len(base[i]))
		}
		for j := range base[i] {
			if base[i][j] != got[i][j] {
				t.Fatalf("proc %d delivery %d: %+v with eviction, %+v without — eviction is not transparent",
					i, j, got[i][j], base[i][j])
			}
		}
	}
	// The second burst must have re-established evicted connections: live
	// conns exist again (or were evicted again after the final drain, which
	// still proves the establish path ran post-eviction).
	if ts.ConnsLive == 0 && ts.ConnsEvicted == 0 {
		t.Fatal("no connection state at end of run")
	}
}

// TestConnEvictionAccounting pins the gauge arithmetic: every eviction
// decrements ConnsLive, every (re-)establishment increments it, and the
// final gauge equals the number of live conn/rconn entries actually held.
func TestConnEvictionAccounting(t *testing.T) {
	_, cl := runBurstyWorkload(t, 99, 120*sim.Microsecond)
	var live int64
	for _, h := range cl.Hosts {
		live += int64(len(h.conns) + len(h.rconns))
		if h.Stats.ConnsLive != int64(len(h.conns)+len(h.rconns)) {
			t.Fatalf("host %d: ConnsLive=%d but holds %d conns + %d rconns",
				h.ID, h.Stats.ConnsLive, len(h.conns), len(h.rconns))
		}
	}
	if got := cl.TotalStats().ConnsLive; got != live {
		t.Fatalf("TotalStats.ConnsLive=%d, hosts hold %d", got, live)
	}
}
