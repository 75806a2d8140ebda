package experiments

import (
	"fmt"
	"math/rand"

	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/reconfig"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
)

// Elastic plots the fabric absorbing live membership changes: a steady
// all-to-all reliable workload runs while a rolling join brings N fresh
// hosts into the total order and a spine switch gracefully drains. Each
// row is one time bucket of the run — delivered messages (throughput),
// delivery latency p50/p95, and the minimum barrier announced by any live
// host. The experiment fails its own acceptance criteria in the notes if
// any receiver observed a timestamp regression or the minimum barrier
// stalled longer than the engine's skew bound allows.
func Elastic(sc Scale) *Table {
	topo := topology.ClosConfig{Pods: 2, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 2, Cores: 2}
	ncfg := netsim.DefaultConfig(topo, 1)
	ncfg.Seed = 7
	ncfg.ControllerManagedCommit = true
	net := netsim.New(ncfg)
	cl := core.Deploy(net, core.DefaultConfig())
	ctrl := controller.New(net, cl)
	ctrl.Raft.WaitLeader(50 * sim.Millisecond)
	eng := net.Eng
	g := net.G
	engine := reconfig.New(net, cl, ctrl)
	// Leader election consumed some simulated time; the timeline is
	// relative to this start so bucket 0 carries traffic.
	start := eng.Now()

	joins, total := 2, 6*sim.Millisecond
	if sc.Name == "full" {
		joins, total = 4, 12*sim.Millisecond
	}
	bucket := total / 24
	nb := int(total / bucket)

	type bstat struct {
		deliv  int
		lat    stats.Sample
		minbar sim.Time
		live   int
	}
	buckets := make([]bstat, nb)
	bi := func() int {
		i := int((eng.Now() - start) / bucket)
		if i >= nb {
			i = nb - 1
		}
		return i
	}

	// Delivery recorders: latency is receiver clock minus message
	// timestamp; lastTS tracks per-receiver order so any regression across
	// an epoch change is counted, not silently averaged away.
	regressions := 0
	lastTS := make(map[netsim.ProcID]sim.Time)
	watch := func(pi int) {
		proc := cl.Procs[pi]
		proc.OnDeliver = func(d core.Delivery) {
			b := &buckets[bi()]
			b.deliv++
			b.lat.Add(float64(proc.Timestamp()-d.TS) / float64(sim.Microsecond))
			if d.TS < lastTS[proc.ID] {
				regressions++
			}
			lastTS[proc.ID] = d.TS
		}
	}

	// Workload: every live process sends one reliable unicast to a random
	// peer each interval. Draws come from one seeded RNG, so the run is
	// reproducible.
	rng := rand.New(rand.NewSource(11))
	interval := 4 * sim.Microsecond
	stop := start + total - sim.Millisecond
	var sender func(pi int)
	sender = func(pi int) {
		if eng.Now() >= stop {
			return
		}
		proc := cl.Procs[pi]
		dst := netsim.ProcID(rng.Intn(len(cl.Procs)))
		if dst != proc.ID {
			proc.SendOpts([]core.Message{{Dst: dst, Data: int64(pi), Size: 128}}, core.SendOptions{Reliable: true})
		}
		eng.After(interval/2+sim.Time(rng.Int63n(int64(interval))), func() { sender(pi) })
	}
	for pi := range cl.Procs {
		watch(pi)
		pi := pi
		eng.After(sim.Time(rng.Int63n(int64(interval)))+sim.Microsecond, func() { sender(pi) })
	}

	// Barrier probe: every 25 us, the minimum best-effort barrier announced
	// by any live (not drained, not dead) host, plus the live host count.
	// stall tracks the longest interval the minimum failed to advance.
	probeEvery := 25 * sim.Microsecond
	var lastMin sim.Time
	lastAdvance := start
	var maxStall sim.Time
	var probe func()
	probe = func() {
		minbar := sim.Time(0)
		live := 0
		for hi, h := range cl.Hosts {
			id := g.Host(hi)
			if g.NodeDead(id) || g.NodeDrained(id) {
				continue
			}
			be, _ := h.Barriers()
			if live == 0 || be < minbar {
				minbar = be
			}
			live++
		}
		if minbar > lastMin {
			lastMin, lastAdvance = minbar, eng.Now()
		} else if s := eng.Now() - lastAdvance; s > maxStall {
			maxStall = s
		}
		b := &buckets[bi()]
		b.minbar, b.live = lastMin, live
		if eng.Now() < start+total-probeEvery {
			eng.After(probeEvery, probe)
		}
	}
	eng.After(probeEvery, probe)

	// Rolling join: one fresh host every 600 us starting at t=1ms,
	// alternating pods. Each activation wires the recorder and a sender of
	// its own, so the joiner contributes load as soon as it is live.
	t := &Table{
		ID:      "elastic",
		Title:   "Live reconfiguration timeline: rolling host join + spine drain under load",
		Columns: []string{"t_us", "live", "deliv", "p50_us", "p95_us", "minbar_us"},
	}
	for j := 0; j < joins; j++ {
		j := j
		at := start + sim.Millisecond + sim.Time(j)*600*sim.Microsecond
		eng.At(at, func() {
			_, err := engine.JoinHost(j%topo.Pods, j%topo.RacksPerPod, func(_ *core.Host, eff sim.Time) {
				pi := len(cl.Procs) - 1
				watch(pi)
				sender(pi)
				t.Notes = append(t.Notes, fmt.Sprintf("join %d activated at t=%dus, effective epoch %dus",
					j, (eng.Now()-start)/sim.Microsecond, eff/sim.Microsecond))
			})
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("join %d failed: %v", j, err))
			}
		})
	}

	// Spine drain at two thirds of the run: pod 0 loses its second spine;
	// ECMP reroutes over the survivor without the barrier regressing.
	eng.At(start+total*2/3, func() {
		phys := g.Node(g.SpineUps(0)[1]).Phys
		err := engine.DrainSwitch(phys, func() {
			t.Notes = append(t.Notes, fmt.Sprintf("spine phys=%d drained at t=%dus", phys, (eng.Now()-start)/sim.Microsecond))
		})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("spine drain failed: %v", err))
		}
	})

	eng.RunFor(total)

	for i, b := range buckets {
		p50, p95 := "-", "-"
		if b.lat.N() > 0 {
			p50, p95 = f1(b.lat.Median()), f1(b.lat.Percentile(95))
		}
		t.AddRow(
			fmt.Sprintf("%d", sim.Time(i)*bucket/sim.Microsecond),
			fmt.Sprintf("%d", b.live),
			fmt.Sprintf("%d", b.deliv),
			p50, p95,
			fmt.Sprintf("%d", b.minbar/sim.Microsecond),
		)
	}
	skew := engine.SkewBound()
	stallVerdict := "ok"
	// The minimum barrier may legitimately hold still for the skew bound
	// plus a few beacon intervals while an epoch activates; anything
	// longer means a seeded register parked the aggregation.
	if allowed := skew + 10*net.Cfg.BeaconInterval; maxStall > allowed {
		stallVerdict = fmt.Sprintf("EXCEEDED allowance %dus", allowed/sim.Microsecond)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("timestamp regressions across all receivers: %d (must be 0)", regressions),
		fmt.Sprintf("max min-barrier stall %dus vs skew bound %dus: %s",
			maxStall/sim.Microsecond, skew/sim.Microsecond, stallVerdict),
		fmt.Sprintf("epochs committed: %d (joins=%d, spine drain=1)", len(ctrl.Epochs), joins))
	if regressions > 0 {
		t.Notes = append(t.Notes, "FAILED: a receiver's delivered timestamp regressed across an epoch change")
	}
	return t
}
