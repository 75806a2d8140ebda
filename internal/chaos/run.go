package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math/rand"

	"onepipe/internal/controller"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/reconfig"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Window is a half-open fault interval [Start, End).
type Window struct {
	Start, End sim.Time
}

// Result is everything a run produced, ready for the checker layer: the
// oracle's log (sends, delivery logs, send failures, the correct set, the
// end-of-run paths, the exempt and forwarded scatterings, failures, wire
// suspects, joins and drains) plus the plan and what the run reports.
type Result struct {
	oracle.Log
	Plan Plan
	// Callbacks is the ordered log of application-visible failure
	// callbacks (OnProcFail, OnSendFail) across all processes. An
	// application may act on these, so their invocation order is part of
	// the replay contract; FullDigest hashes this log so nondeterministic
	// map iteration in the callback paths shows up as digest drift.
	Callbacks []CallbackRec
	// Partitions lists the partition fault windows of the schedule.
	Partitions []Window
	// DrainedSwitches lists physical switches that completed a graceful
	// drain.
	DrainedSwitches []int
	// Epochs is the controller's replicated reconfiguration-epoch log.
	Epochs []controller.EpochRecord

	ForwardedMsgs uint64
	Stats         core.HostStats
	NetStats      netsim.Stats
}

// CallbackRec is one application-visible failure callback, recorded in
// invocation order. Kind 0 = OnProcFail (Observer told Proc failed at TS);
// Kind 1 = OnSendFail (Observer's scattering ID toward Proc reported lost).
type CallbackRec struct {
	Kind     uint8
	Observer netsim.ProcID
	Proc     netsim.ProcID
	TS       sim.Time
	ID       oracle.ID
}

// Run executes a plan to completion and returns the recorded logs. A given
// plan always produces byte-identical delivery logs (see Digest); TestChaos
// asserts this on every seed.
func Run(p Plan) *Result { return runWith(p, nil, nil) }

// runWith is Run plus an optional packet tap observing every packet
// delivered to any host, with the host index and arrival time (used to
// harvest wire-format fuzz seeds and by the wire-level golden digest), and
// an optional end hook that inspects the fabric after the run, before it
// stops (used to read switch registers).
func runWith(p Plan, tap func(hi int, at sim.Time, pkt *netsim.Packet), end func(*netsim.Network)) *Result {
	net := netsim.New(p.NetConfig())
	cl := core.Deploy(net, p.CoreConfig())
	ctrl := controller.New(net, cl)
	eng := net.Eng

	nprocs := net.NumProcs()
	pph := net.Cfg.ProcsPerHost
	// The log arrays are pre-sized to the post-join process count so the
	// recorder closures installed at activation index into stable slices;
	// with no scheduled joins this is exactly the historical sizing, and the
	// digest is unchanged.
	finalProcs := nprocs + len(p.Joins)*pph
	res := &Result{
		Log: oracle.Log{
			Mode:       oracle.Mode(p.Mode),
			Annotated:  true,
			Deliveries: make([][]oracle.Delivery, finalProcs),
			SendFails:  make(map[oracle.ID]map[netsim.ProcID]bool),
			Correct:    make([]bool, finalProcs),
			Forwarded:  make(map[oracle.ID]bool),
			Joined:     make(map[netsim.ProcID]sim.Time),
			Drained:    make(map[netsim.ProcID]oracle.Drain),
		},
		Plan: p,
	}
	ctrl.OnForward = func(pkt *netsim.Packet) {
		if id, ok := pkt.Payload.(oracle.ID); ok {
			res.Forwarded[id] = true
		}
	}

	// Wire-level §4.1 probe on every host downlink (chip mode only, see
	// oracle.WireProbe): a stamp-order/wire-order inversion inside a switch
	// shows up here long before it happens to line up into an end-to-end
	// misdelivery.
	chip := net.Cfg.Mode == netsim.ModeChip
	probe := oracle.NewWireProbe(&res.Log)
	attachProbe := func(hi int) {
		rx := cl.Hosts[hi].HandlePacket
		net.AttachHost(hi, func(pkt *netsim.Packet) {
			if tap != nil {
				tap(hi, eng.Now(), pkt)
			}
			if chip {
				probe.Observe(hi, eng.Now(), pkt)
			}
			rx(pkt)
		})
	}
	for hi := range cl.Hosts {
		attachProbe(hi)
	}

	// Recorders. OnDeliver appends to the per-process log; the annotations
	// (clock, barriers) are all deterministic functions of the event order.
	installRecorders := func(i int) {
		proc := cl.Procs[i]
		host := cl.Hosts[net.HostOfProc(proc.ID)]
		proc.OnDeliver = func(d core.Delivery) {
			be, c := host.Barriers()
			res.Deliveries[i] = append(res.Deliveries[i], oracle.Delivery{
				TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID), Reliable: d.Reliable,
				ClockAt: proc.Timestamp(), BarBE: be, BarC: c,
				Conflict: d.Conflict,
			})
		}
		proc.OnSendFail = func(sf core.SendFailure) {
			id, ok := sf.Data.(oracle.ID)
			if !ok {
				return
			}
			res.Callbacks = append(res.Callbacks, CallbackRec{
				Kind: 1, Observer: proc.ID, Proc: sf.Dst, TS: sf.TS, ID: id,
			})
			set := res.SendFails[id]
			if set == nil {
				set = make(map[netsim.ProcID]bool)
				res.SendFails[id] = set
			}
			set[sf.Dst] = true
		}
		proc.OnProcFail = func(fp netsim.ProcID, ts sim.Time) {
			res.Callbacks = append(res.Callbacks, CallbackRec{
				Kind: 0, Observer: proc.ID, Proc: fp, TS: ts,
			})
		}
	}
	for i := 0; i < nprocs; i++ {
		installRecorders(i)
	}

	// Workload: every process runs an independent send loop off one shared,
	// seed-derived RNG. Draw order is fixed by the deterministic event
	// order, so the traffic replays exactly. curProcs is the currently
	// deployed process count — it grows at join activations, widening the
	// destination draw to the new tail.
	wrng := rand.New(rand.NewSource(p.Seed ^ 0x6a09e667f3bcc908))
	seqs := make([]int32, finalProcs)
	curProcs := nprocs
	var msgs []core.Message // every scattering is built here: Send copies it
	var loop func(pi int)
	loop = func(pi int) {
		if eng.Now() >= p.Workload.Stop {
			return
		}
		proc := cl.Procs[pi]
		fan := 1 + wrng.Intn(p.Workload.MaxFanout)
		if fan > curProcs-1 {
			fan = curProcs - 1
		}
		msgs = msgs[:0]
		seen := map[netsim.ProcID]bool{proc.ID: true}
		id := oracle.ID{Src: proc.ID, Seq: seqs[pi]}
		for len(msgs) < fan {
			dst := netsim.ProcID(wrng.Intn(curProcs))
			if seen[dst] {
				continue
			}
			seen[dst] = true
			msgs = append(msgs, core.Message{Dst: dst, Data: id, Size: p.Workload.MsgBytes})
		}
		reliable := wrng.Float64() < p.Workload.ReliableFrac
		// The conflict draw happens only on plans that opt in, so the RNG
		// stream — and with it every existing golden digest — is untouched
		// when ConflictRate is zero.
		var ckey uint32
		if p.ConflictRate > 0 && wrng.Float64() < p.ConflictRate {
			ckey = 1 + uint32(wrng.Intn(4))
		}
		rec := oracle.Send{ID: id, Src: proc.ID, Reliable: reliable, At: proc.Timestamp(), Conflict: ckey}
		for _, m := range msgs {
			rec.Dsts = append(rec.Dsts, m.Dst)
		}
		// ConflictKey 0 means "no conflict group", so the unified options
		// path is behavior-identical to the old Send/SendReliable split.
		err := proc.SendOpts(msgs, core.SendOptions{Reliable: reliable, ConflictKey: ckey})
		if err != nil {
			rec.Refused = true
		} else {
			seqs[pi]++
		}
		res.Sends = append(res.Sends, rec)
		gap := p.Workload.Interval/2 + sim.Time(wrng.Int63n(int64(p.Workload.Interval)))
		eng.After(gap, func() { loop(pi) })
	}
	for pi := 0; pi < nprocs; pi++ {
		pi := pi
		// Stagger starts across one interval.
		eng.After(sim.Time(wrng.Int63n(int64(p.Workload.Interval)))+sim.Microsecond, func() { loop(pi) })
	}

	// Membership executor: scheduled joins and graceful drains run through
	// the epoch-based reconfiguration engine, sharing the controller's Raft
	// log with the failure pipeline. A joined host gets the wire probe, the
	// recorders and a workload loop of its own at activation; a drained
	// host's log length is frozen for the drain-silence checker.
	departed := make(map[int]bool)
	crashed := make(map[int]bool) // hosts the schedule fail-stops
	for _, f := range p.Faults {
		if f.Kind == FaultHostCrash {
			crashed[f.Host] = true
		}
	}
	if len(p.Joins) > 0 || len(p.Drains) > 0 {
		reconf := reconfig.New(net, cl, ctrl)
		for _, j := range p.Joins {
			j := j
			eng.At(j.At, func() {
				// An invalid placement is a plan-authoring error; it simply
				// never shows up in res.Joined.
				_, _ = reconf.JoinHost(j.Pod, j.Rack, func(_ *core.Host, eff sim.Time) {
					hi := len(cl.Hosts) - 1 // AddHost appended just before this callback
					attachProbe(hi)
					curProcs = len(cl.Procs)
					for pi := hi * pph; pi < (hi+1)*pph; pi++ {
						pi := pi
						res.Joined[netsim.ProcID(pi)] = eff
						installRecorders(pi)
						eng.After(sim.Time(wrng.Int63n(int64(p.Workload.Interval)))+sim.Microsecond, func() { loop(pi) })
					}
				})
			})
		}
		for _, d := range p.Drains {
			d := d
			if d.Switch {
				eng.At(d.At, func() {
					_ = reconf.DrainSwitch(d.Phys, func() {
						res.DrainedSwitches = append(res.DrainedSwitches, d.Phys)
					})
				})
				continue
			}
			eng.At(d.At, func() {
				_ = reconf.DrainHost(d.Host, func() {
					departed[d.Host] = true
					for pi := d.Host * pph; pi < (d.Host+1)*pph; pi++ {
						res.Drained[netsim.ProcID(pi)] = oracle.Drain{
							LogLen: len(res.Deliveries[pi]), At: eng.Now(), Crashed: crashed[d.Host]}
					}
				})
			})
		}
	}

	// Fault executor: every fault is armed at an absolute engine time.
	// A loss burst overrides every link's uniform loss for its window;
	// clearing the override hands the rate back to the plan's profile.
	for _, f := range p.Faults {
		f := f
		switch f.Kind {
		case FaultLossBurst:
			eng.At(f.At, func() { net.SetLossOverride(f.Rate) })
			eng.At(f.At+f.Dur, func() { net.SetLossOverride(0) })
		case FaultLinkDown:
			eng.At(f.At, func() { net.G.KillLink(f.Link) })
		case FaultHostCrash:
			eng.At(f.At, func() {
				net.G.KillNode(net.G.Host(f.Host))
				cl.Hosts[f.Host].Stop()
			})
		case FaultSwitchCrash:
			eng.At(f.At, func() { net.G.KillPhys(f.Phys) })
		case FaultPartition:
			res.Partitions = append(res.Partitions, Window{Start: f.At, End: f.At + f.Dur})
			cut := partitionLinks(net.G, f.Pod)
			eng.At(f.At, func() {
				for _, lid := range cut {
					net.G.KillLink(lid)
				}
			})
			eng.At(f.At+f.Dur, func() {
				for _, lid := range cut {
					net.G.ReviveLink(lid)
				}
			})
		}
	}

	cl.Run(p.RunFor)

	// Post-run classification and state harvest. Gracefully departed hosts
	// are not correct in the delivery-obligation sense — like a crashed
	// host, in-flight scatterings toward them resolve via send-failure —
	// but unlike a crash this must happen without any failure record,
	// which drain-no-failure enforces separately.
	for pi := 0; pi < net.NumProcs(); pi++ {
		hi := net.HostOfProc(netsim.ProcID(pi))
		res.Correct[pi] = !crashed[hi] && !departed[hi] && net.G.HostConnected(net.G.Host(hi))
	}
	res.PathOK = procReachability(net)
	res.Exempt = exempt(res)
	for _, rec := range ctrl.Failures {
		res.Fail(rec.Procs)
	}
	res.Epochs = ctrl.Epochs
	res.ForwardedMsgs = ctrl.ForwardedMsgs
	res.Stats = cl.TotalStats()
	res.NetStats = net.TotalStats()
	if end != nil {
		end(net)
	}
	net.Stop()
	return res
}

// procReachability BFSes the end-of-run graph over live links and nodes and
// maps host-level reachability onto process pairs.
func procReachability(net *netsim.Network) [][]bool {
	g := net.G
	nprocs := net.NumProcs()
	hostReach := make(map[topology.NodeID]map[topology.NodeID]bool)
	for hi := 0; hi < len(g.Hosts); hi++ {
		from := g.Host(hi)
		seen := map[topology.NodeID]bool{from: true}
		if g.NodeDead(from) {
			hostReach[from] = seen
			continue
		}
		queue := []topology.NodeID{from}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, lid := range g.Out[cur] {
				if g.LinkDead(lid) {
					continue
				}
				to := g.Link(lid).To
				if !seen[to] && !g.NodeDead(to) {
					seen[to] = true
					queue = append(queue, to)
				}
			}
		}
		hostReach[from] = seen
	}
	ok := make([][]bool, nprocs)
	for a := 0; a < nprocs; a++ {
		ok[a] = make([]bool, nprocs)
		ha := g.Host(net.HostOfProc(netsim.ProcID(a)))
		for b := 0; b < nprocs; b++ {
			hb := g.Host(net.HostOfProc(netsim.ProcID(b)))
			ok[a][b] = hostReach[ha][hb]
		}
	}
	return ok
}

// partitionLinks returns both directions of the pod<->core cut.
func partitionLinks(g *topology.Graph, pod int) []topology.LinkID {
	var cut []topology.LinkID
	for _, l := range g.Links {
		switch l.Kind {
		case topology.LinkSpineCoreUp:
			if g.Node(l.From).Pod == pod {
				cut = append(cut, l.ID)
			}
		case topology.LinkCoreSpineDown:
			if g.Node(l.To).Pod == pod {
				cut = append(cut, l.ID)
			}
		}
	}
	return cut
}

// Digest hashes the complete delivery logs — order, annotations and all.
// Two runs of the same plan must produce the same digest; TestChaos treats
// any difference as a determinism (replayability) bug in the stack. Conflict
// keys are deliberately not hashed, so tagging an existing plan cannot move
// its golden digest through that field.
func (r *Result) Digest() string {
	h := sha256.New()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for pi, log := range r.Deliveries {
		w(int64(pi))
		w(int64(len(log)))
		for _, d := range log {
			w(int64(d.TS))
			w(int64(d.Src))
			w(int64(d.ID.Src))
			w(int64(d.ID.Seq))
			if d.Reliable {
				w(1)
			} else {
				w(0)
			}
			w(int64(d.ClockAt))
			w(int64(d.BarBE))
			w(int64(d.BarC))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FullDigest extends Digest with the ordered failure-callback log: two runs
// of one plan must invoke OnProcFail/OnSendFail on the same processes in
// the same order with the same arguments, or an application acting on the
// callbacks would diverge on replay. This is the digest the determinism CI
// job pins across processes (fresh Go map hash seed each run), guarding the
// sorted-iteration fixes in core's failure paths.
func (r *Result) FullDigest() string {
	h := sha256.New()
	h.Write([]byte(r.Digest()))
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	w(int64(len(r.Callbacks)))
	for _, c := range r.Callbacks {
		w(int64(c.Kind))
		w(int64(c.Observer))
		w(int64(c.Proc))
		w(int64(c.TS))
		w(int64(c.ID.Src))
		w(int64(c.ID.Seq))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Partition exemption guards: a scattering submitted inside
// [Start-partGuardBefore, End+partGuardAfter) of any partition window is
// exempt from the cross-receiver and atomicity checks — during a partition
// the paper only promises local order for forwarded traffic (§5.2
// Controller Forwarding caveat). Everything else (at-most-once, causality,
// barrier gating, per-receiver sortedness, the discard floor) is enforced
// unconditionally.
const (
	partGuardBefore = 1 * sim.Millisecond
	partGuardAfter  = 5 * sim.Millisecond / 2
)

// exempt computes the oracle's exempt set: every scattering the controller
// forwarded (the §5.2 caveat holds whichever fault severed the path), and
// every one submitted inside a partition window.
func exempt(r *Result) map[oracle.ID]bool {
	ex := maps.Clone(r.Forwarded)
	for _, s := range r.Sends {
		for _, w := range r.Partitions {
			if !s.Refused && s.At >= w.Start-partGuardBefore && s.At < w.End+partGuardAfter {
				ex[s.ID] = true
			}
		}
	}
	return ex
}
