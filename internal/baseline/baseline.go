// Package baseline implements the total-order broadcast algorithms 1Pipe
// is compared against in Figure 8: a centralized sequencer on a
// programmable switch (Eris/NOPaxos style), a centralized sequencer on a
// host NIC, a token ring (Totem style), and Lamport logical-timestamp
// exchange.
//
// Each baseline is an event-driven simulation on the same engine and with
// the same delay constants as the 1Pipe network model: processes offer
// 64-byte messages at a configurable rate, the algorithm's serialization
// machinery is modeled with explicit queues, and the harness reports
// delivered throughput and delivery latency. The 1Pipe columns of Figure 8
// run on the full network simulator; these baselines isolate the ordering
// bottleneck, which is what the figure is about.
package baseline

import (
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// Config parameterizes one baseline run: what Figure 8 sweeps.
type Config struct {
	// Procs is the number of processes; the traffic pattern is all-to-all
	// (each message goes to a uniformly random peer, as a slice of a
	// broadcast).
	Procs int
	// OfferedPerProc is the per-process offered load in messages/second.
	OfferedPerProc float64
	// Duration is the measured window of virtual time.
	Duration sim.Time
}

// The calibration against the netsim testbed constants, the same in every
// run.
const (
	// procRate is the per-process CPU send/receive capacity (msg/s); the
	// paper's lib1pipe tops out near 5M msg/s per process.
	procRate = 5e6
	// pathDelay is the average one-way host-to-host latency.
	pathDelay = 2500 * sim.Nanosecond
	// seqRate is the sequencer's service rate (msg/s): a programmable
	// switch stamps at line rate; a host NIC sequencer is ~an order of
	// magnitude slower.
	seqRate = 100e6
	// seqDetour is the extra one-way delay to reach the sequencer.
	seqDetour = 1500 * sim.Nanosecond
	// tokenPass is the token hand-off delay; tokenBatch the messages a
	// holder may send per possession.
	tokenPass  = 2 * sim.Microsecond
	tokenBatch = 16
	// exchangeInterval is the Lamport timestamp-exchange period before
	// RunLamport stretches it.
	exchangeInterval = 10 * sim.Microsecond
	seed             = 1
)

// DefaultConfig is the Figure 8 operating point for the given process
// count.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:          procs,
		OfferedPerProc: 5e6,
		Duration:       200 * sim.Microsecond,
	}
}

// Result is one (algorithm, process count) data point of Figure 8.
type Result struct {
	Name  string
	Procs int
	// TputPerProc is delivered messages/second per process.
	TputPerProc float64
	// Latency summarizes delivery latency in microseconds.
	Latency stats.Sample
}

// queue models a FIFO service station (sequencer pipeline, NIC, CPU).
type queue struct {
	busyUntil sim.Time
	perMsg    sim.Time
}

func newQueue(rate float64) *queue {
	return &queue{perMsg: sim.Time(1e9 / rate)}
}

// admit returns the completion time of a message entering the station now.
func (q *queue) admit(now sim.Time) sim.Time {
	start := now
	if q.busyUntil > start {
		start = q.busyUntil
	}
	q.busyUntil = start + q.perMsg
	return q.busyUntil
}

// depth returns the current backlog in time units.
func (q *queue) depth(now sim.Time) sim.Time {
	if q.busyUntil <= now {
		return 0
	}
	return q.busyUntil - now
}

// maxQueueDelay caps modeled queueing: beyond it the station drops (the
// figure's latency "soars" at saturation; unbounded queues would just melt
// the simulation).
const maxQueueDelay = 5 * sim.Millisecond

// RunSwitchSeq models a centralized sequencer on a programmable switch:
// every message detours to the sequencer, is stamped in a line-rate
// pipeline, and continues to its destination. Receivers deliver in stamp
// order (which the single sequencer makes trivially total).
func RunSwitchSeq(cfg Config) Result {
	return runSequencer("SwitchSeq", cfg, seqRate)
}

// RunHostSeq models the sequencer on a host NIC (design of "Design
// Guidelines for High Performance RDMA Systems"): same structure, an order
// of magnitude less stamping throughput.
func RunHostSeq(cfg Config) Result {
	return runSequencer("HostSeq", cfg, seqRate/8)
}

func runSequencer(name string, cfg Config, rate float64) Result {
	eng := sim.NewEngine(seed)
	res := Result{Name: name, Procs: cfg.Procs}
	seq := newQueue(rate)
	recv := make([]*queue, cfg.Procs)
	for i := range recv {
		recv[i] = newQueue(procRate)
	}
	delivered := 0
	gap := sim.Time(1e9 / cfg.OfferedPerProc)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		phase := sim.Time(int64(p) * int64(gap) / int64(cfg.Procs))
		sim.NewTicker(eng, gap, phase, func() {
			sent := eng.Now()
			// Sender CPU is also a station; skip when saturated.
			if seq.depth(sent) > maxQueueDelay {
				return // sequencer ingress drop under overload
			}
			atSeq := sent + pathDelay/2 + seqDetour
			eng.At(atSeq, func() {
				stamped := seq.admit(eng.Now())
				dst := eng.Rand().Intn(cfg.Procs)
				arrive := stamped + seqDetour + pathDelay/2
				eng.At(arrive, func() {
					if recv[dst].depth(eng.Now()) > maxQueueDelay {
						return
					}
					done := recv[dst].admit(eng.Now())
					eng.At(done, func() {
						delivered++
						res.Latency.Add(float64(eng.Now()-sent) / 1000)
					})
				})
			})
		})
	}
	eng.RunUntil(cfg.Duration)
	res.TputPerProc = float64(delivered) / cfg.Duration.Seconds() / float64(cfg.Procs)
	return res
}

// RunToken models a token ring: only the token holder may send; it drains
// up to TokenBatch pending messages, then passes the token to the next
// process.
func RunToken(cfg Config) Result {
	eng := sim.NewEngine(seed)
	res := Result{Name: "Token", Procs: cfg.Procs}
	type msg struct{ created sim.Time }
	pendings := make([][]msg, cfg.Procs)
	delivered := 0
	gap := sim.Time(1e9 / cfg.OfferedPerProc)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		sim.NewTicker(eng, gap, 0, func() {
			if len(pendings[p]) < 4*tokenBatch { // bounded send buffer
				pendings[p] = append(pendings[p], msg{created: eng.Now()})
			}
		})
	}
	perMsg := sim.Time(1e9 / procRate)
	var rotate func(holder int)
	rotate = func(holder int) {
		n := len(pendings[holder])
		if n > tokenBatch {
			n = tokenBatch
		}
		busy := eng.Now()
		for i := 0; i < n; i++ {
			m := pendings[holder][i]
			busy += perMsg
			arrive := busy + pathDelay
			created := m.created
			eng.At(arrive, func() {
				delivered++
				res.Latency.Add(float64(eng.Now()-created) / 1000)
			})
		}
		pendings[holder] = pendings[holder][n:]
		eng.At(busy+tokenPass, func() { rotate((holder + 1) % cfg.Procs) })
	}
	rotate(0)
	eng.RunUntil(cfg.Duration)
	res.TputPerProc = float64(delivered) / cfg.Duration.Seconds() / float64(cfg.Procs)
	return res
}

// RunLamport models receiver-side ordering with Lamport logical clocks and
// periodic timestamp exchange (the classic optimization: peers exchange
// their latest timestamps once per interval instead of per message). A
// receiver delivers a message once every peer's last-heard clock exceeds
// its timestamp, so delivery latency is bounded below by the exchange
// interval — and the (N-1) exchange messages per interval eat into each
// process's send budget.
func RunLamport(cfg Config) Result {
	eng := sim.NewEngine(seed)
	res := Result{Name: "Lamport", Procs: cfg.Procs}
	n := cfg.Procs

	// Exchange overhead: (n-1) control messages per interval per process.
	// When the exchange would eat more than half the CPU, the interval is
	// stretched so exactly half the budget remains for data — the paper's
	// "even if 50% throughput is used for timestamp exchange" trade-off;
	// delivery latency then grows with the stretched interval.
	exchange := exchangeInterval
	ctrlRate := float64(n-1) / exchange.Seconds()
	if ctrlRate > procRate/2 {
		ctrlRate = procRate / 2
		exchange = sim.Time(float64(n-1) / ctrlRate * 1e9)
	}
	dataBudget := procRate - ctrlRate
	offered := cfg.OfferedPerProc
	if offered > dataBudget {
		offered = dataBudget
	}

	type inflight struct {
		ts      sim.Time
		created sim.Time
	}
	// minHeard[r] is min over peers of the last clock r heard.
	lastHeard := make([][]sim.Time, n)
	for i := range lastHeard {
		lastHeard[i] = make([]sim.Time, n)
	}
	buffered := make([][]inflight, n)
	delivered := 0
	drain := func(r int) {
		minClock := lastHeard[r][0]
		for _, c := range lastHeard[r][1:] {
			if c < minClock {
				minClock = c
			}
		}
		kept := buffered[r][:0]
		for _, m := range buffered[r] {
			if m.ts < minClock {
				delivered++
				res.Latency.Add(float64(eng.Now()-m.created) / 1000)
			} else {
				kept = append(kept, m)
			}
		}
		buffered[r] = kept
	}

	gap := sim.Time(1e9 / offered)
	for p := 0; p < n; p++ {
		p := p
		sim.NewTicker(eng, gap, 0, func() {
			now := eng.Now()
			dst := eng.Rand().Intn(n)
			eng.At(now+pathDelay, func() {
				if len(buffered[dst]) < 1<<16 {
					buffered[dst] = append(buffered[dst], inflight{ts: now, created: now})
				}
				lastHeard[dst][p] = now
				drain(dst)
			})
		})
		// Periodic clock exchange to every peer.
		sim.NewTicker(eng, exchange, 0, func() {
			now := eng.Now()
			for r := 0; r < n; r++ {
				r := r
				eng.At(now+pathDelay, func() {
					if now > lastHeard[r][p] {
						lastHeard[r][p] = now
						drain(r)
					}
				})
			}
		})
	}
	eng.RunUntil(cfg.Duration)
	res.TputPerProc = float64(delivered) / cfg.Duration.Seconds() / float64(cfg.Procs)
	return res
}
