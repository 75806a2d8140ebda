package experiments

import (
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// pump is a running source drive's counters.
type pump struct {
	// Sent counts intents the fabric accepted (Send returned nil).
	Sent int
}

// drivePump pumps a workload.Source into a cluster: each intent becomes
// one scattering from Procs[Src]. With stamp set, messages carry the send
// time as payload (the latency convention every figure uses); without it
// they are anonymous background load.
func drivePump(cl *core.Cluster, src workload.Source, stamp bool) *pump {
	p := &pump{}
	eng := cl.Net.Eng
	n := len(cl.Procs)
	var step func()
	var cur workload.Intent
	var msgs []core.Message // every scattering is built here: Send copies it
	pull := func() {
		if it, ok := src.Next(); ok {
			cur = it
			eng.At(max(it.At, eng.Now()), step)
		}
	}
	step = func() {
		msgs = msgs[:0]
		for _, d := range cur.Dsts {
			m := core.Message{Dst: netsim.ProcID(d % n), Size: cur.Size}
			if stamp {
				m.Data = eng.Now()
			}
			msgs = append(msgs, m)
		}
		src := cl.Procs[cur.Src%n]
		err := src.SendOpts(msgs, core.SendOptions{
			Reliable:    cur.Opts.Reliable,
			NoBatch:     cur.Opts.Unbatched,
			ConflictKey: cur.Opts.ConflictKey,
		})
		if err == nil {
			p.Sent++
		}
		pull()
	}
	pull()
	return p
}

// driveRaw pumps a Source as raw data-plane packets injected below the
// 1Pipe stack: intent Src/Dsts are host indices, each packet stamped with
// the sending host's synchronized clock (the pre-stack ablation path that
// measures what the fabric alone does to ordering).
func driveRaw(netN *netsim.Network, src workload.Source) {
	eng := netN.Eng
	var step func()
	var cur workload.Intent
	pull := func() {
		if it, ok := src.Next(); ok {
			cur = it
			eng.At(max(it.At, eng.Now()), step)
		}
	}
	step = func() {
		ts := netN.Clocks[cur.Src].Now()
		for _, d := range cur.Dsts {
			netN.SendFromHost(cur.Src, &netsim.Packet{Kind: netsim.KindData,
				Src: netsim.ProcID(cur.Src), Dst: netsim.ProcID(d),
				MsgTS: ts, BarrierBE: ts, Size: cur.Size})
		}
		pull()
	}
	pull()
}

// class is how a probe is sent and how the meter files its latency.
type class int

const (
	classBE  class = iota // ordered best-effort scattering
	classRel              // reliable scattering (2PC)
	classRaw              // SendRaw: unordered, below the 1Pipe stack
	numClasses
)

func classOf(reliable bool) class {
	if reliable {
		return classRel
	}
	return classBE
}

// probes is the latency figures' rng-free probe schedule: probe i leaves
// at start + i·gap + (i mod m)·step, from process i mod n to (a·i + b) mod
// n — the next process when that is the sender itself — as a stamped
// 64-byte message of class classes[i mod len(classes)].
type probes struct {
	count      int
	start, gap sim.Time
	m          int
	step       sim.Time
	a, b       int
	classes    []class
}

// idleProbes is Fig. 9's idle-system probe workload: sparse probes between
// spread process pairs, phases decorrelated from the beacon interval.
func idleProbes(sc Scale, c class) probes {
	return probes{count: 120, start: sc.Warmup, gap: 7 * sim.Microsecond,
		m: 11, step: 531 * sim.Nanosecond, a: 7, b: 3, classes: []class{c}}
}

// ablProbes is the ablations' best-effort probe workload, from 100 us on.
func ablProbes(count int, gap sim.Time, a, b int) probes {
	return probes{count: count, start: 100 * sim.Microsecond, gap: gap,
		m: 11, step: 531 * sim.Nanosecond, a: a, b: b, classes: []class{classBE}}
}

// end is when the schedule's last slot closes: start + count·gap.
func (s probes) end() sim.Time { return s.start + sim.Time(s.count)*s.gap }

// runProbes meters every process of cl, schedules every probe of s up front
// (one engine event each, in probe order) and runs cl for d. A lazy pump
// like drivePump would schedule each probe only when the one before it
// fires, which breaks same-instant ties the other way.
func runProbes(cl *core.Cluster, s probes, d sim.Time) *meter {
	m := newMeter(cl)
	eng := cl.Net.Eng
	n := len(cl.Procs)
	for i := 0; i < s.count; i++ {
		at := s.start + sim.Time(i)*s.gap + sim.Time(i%s.m)*s.step
		src, dst := cl.Procs[i%n], netsim.ProcID((s.a*i+s.b)%n)
		if int(dst) == i%n {
			dst = netsim.ProcID((int(dst) + 1) % n)
		}
		c := s.classes[i%len(s.classes)]
		eng.At(at, func() {
			if c == classRaw {
				src.SendRaw(dst, eng.Now(), 64)
				return
			}
			src.SendOpts([]core.Message{{Dst: dst, Data: eng.Now(), Size: 64}},
				core.SendOptions{Reliable: c == classRel})
		})
	}
	cl.Run(d)
	return m
}

// meter records the deliveries of every process of a cluster while on: how
// many, and per class the latency (us) of each stamped one, in delivery
// order.
type meter struct {
	on        bool
	delivered int
	lat       [numClasses]stats.Sample
}

// newMeter installs a meter, switched on, on every process of cl.
func newMeter(cl *core.Cluster) *meter {
	m := &meter{on: true}
	eng := cl.Net.Eng
	record := func(c class, data any) {
		if !m.on {
			return
		}
		m.delivered++
		if sent, ok := data.(sim.Time); ok {
			m.lat[c].Add(float64(eng.Now()-sent) / 1000)
		}
	}
	for _, p := range cl.Procs {
		p.OnDeliver = func(d core.Delivery) { record(classOf(d.Reliable), d.Data) }
		p.OnRaw = func(_ netsim.ProcID, data any) { record(classRaw, data) }
	}
	return m
}

// window runs eng for warm with the meter off, then for win with it on:
// deliveries after warm and up to warm+win are measured.
func (m *meter) window(eng *sim.Engine, warm, win sim.Time) {
	m.on = false
	eng.RunFor(warm)
	m.on = true
	eng.RunFor(win)
	m.on = false
}

// arrivals counts the data packets reaching one host and how many of them
// arrive below the highest timestamp seen so far (out of order, §4.1).
type arrivals struct {
	total, ooo int
	last       sim.Time
}

func countArrivals(netN *netsim.Network, host int) *arrivals {
	a := &arrivals{}
	netN.AttachHost(host, func(p *netsim.Packet) {
		if p.Kind != netsim.KindData {
			return
		}
		a.total++
		if p.MsgTS < a.last {
			a.ooo++
		} else {
			a.last = p.MsgTS
		}
	})
	return a
}

// oooShare is the fraction of arrivals that came out of order.
func (a *arrivals) oooShare() float64 { return float64(a.ooo) / float64(a.total) }
