package experiments

import (
	"fmt"

	"onepipe"
	"onepipe/internal/serve"
	"onepipe/internal/sim"
)

// ServeRow is one serving-tier measurement: a client-scale point, the
// tpcc-style mix, an SMR mode, or one elastic-timeline bucket. Latencies
// are microseconds, client-observed.
type ServeRow struct {
	Segment   string  `json:"segment"`
	Clients   int     `json:"clients"`
	Delivered int     `json:"delivered"`
	ReqPerSec float64 `json:"req_per_s"`
	P50       float64 `json:"p50_us"`
	P99       float64 `json:"p99_us"`
	P999      float64 `json:"p999_us"`
}

// serveProcs sizes the serving fabric from the scale's process budget.
func serveProcs(sc Scale) int {
	n := sc.MaxProcs
	if n > 512 {
		n = 512
	}
	if n < 8 {
		n = 8
	}
	return n
}

// serveCluster deploys a root-API fabric for n processes.
func serveCluster(n int, withController bool) *onepipe.Cluster {
	topo, pph := topoFor(n)
	return onepipe.NewCluster(onepipe.Config{
		Topology:       topo,
		ProcsPerHost:   pph,
		Seed:           1,
		WithController: withController,
	})
}

// ElasticP99Budget bounds post-drain tail latency relative to the
// pre-reconfiguration bucket: recovery means the final bucket's p99 is
// within this factor of the baseline.
const ElasticP99Budget = 2.5

// RunServe produces the -fig serve rows: a KV client-scale sweep (the top
// point is >=100k closed-loop clients at quick scale, ~1M at full), the
// transaction mix, the fabric-SMR vs Raft head-to-head, and an elastic
// Join/Drain timeline. The returned notes carry the self-asserted elastic
// verdict (RECOVERED/EXCEEDED — CI greps for failure).
func RunServe(sc Scale) ([]ServeRow, []string) {
	n := serveProcs(sc)
	var rows []ServeRow
	var notes []string

	// KV client-scale sweep: fixed think time, so offered load grows with
	// the connected-client count and the sweep traces latency under load.
	for _, mul := range []int{32, 128, 2048} {
		clients := n * mul
		cfg := serve.DefaultConfig()
		cfg.Clients = clients
		cfg.Seed = 1
		tier := serve.New(serveCluster(n, false), cfg)
		res := tier.RunLoad(sc.Warmup, sc.Window)
		rows = append(rows, serveRow(fmt.Sprintf("kv/%d", n), clients, res))
	}

	// tpcc-style transaction mix.
	{
		clients := n * 64
		cfg := serve.DefaultConfig()
		cfg.Service = serve.Txn
		cfg.Clients = clients
		cfg.Seed = 1
		tier := serve.New(serveCluster(n, false), cfg)
		res := tier.RunLoad(sc.Warmup, sc.Window)
		rows = append(rows, serveRow("txn", clients, res))
	}

	// SMR head-to-head: the same replicated state machine, commands
	// sequenced by the fabric's total order (no leader) vs the in-tree
	// Raft baseline riding best-effort fabric scatterings.
	smrProcs := 16
	if smrProcs > n {
		smrProcs = n
	}
	for _, svc := range []serve.Service{serve.SMRFabric, serve.SMRRaft} {
		clients := smrProcs * 64
		cfg := serve.DefaultConfig()
		cfg.Service = svc
		cfg.Clients = clients
		cfg.ThinkTime = 200 * sim.Microsecond
		cfg.Seed = 1
		tier := serve.New(serveCluster(smrProcs, false), cfg)
		tier.WaitSMRReady(5 * sim.Millisecond)
		res := tier.RunLoad(sc.Warmup, sc.Window)
		rows = append(rows, serveRow(svc.String(), clients, res))
	}

	// Elastic timeline: Join then Drain mid-load, with SLO recovery
	// asserted against the pre-reconfiguration bucket.
	er, en := runServeElastic(sc)
	rows = append(rows, er...)
	notes = append(notes, en...)
	return rows, notes
}

func serveRow(seg string, clients int, res serve.Result) ServeRow {
	return ServeRow{
		Segment:   seg,
		Clients:   clients,
		Delivered: res.Delivered,
		ReqPerSec: res.ReqPerSec(),
		P50:       res.P50,
		P99:       res.P99,
		P999:      res.P999,
	}
}

// runServeElastic drives the Join/Drain-under-load segment: a fabric where
// half the processes own shards and half are pure frontends, a joined host
// adding frontend capacity mid-load, then a graceful frontend drain — with
// a measured bucket after each transition.
func runServeElastic(sc Scale) ([]ServeRow, []string) {
	n := 32
	if n > serveProcs(sc) {
		n = serveProcs(sc)
	}
	cl := serveCluster(n, true)
	cfg := serve.DefaultConfig()
	cfg.Servers = n / 2 // the rest are pure frontends; joins add more
	cfg.Clients = n * 128
	cfg.ThinkTime = 500 * sim.Microsecond
	cfg.Seed = 1
	tier := serve.New(cl, cfg)
	tier.Start()
	cl.Run(sc.Warmup)

	bucket := sc.Window / 2
	if bucket < 50*sim.Microsecond {
		bucket = 50 * sim.Microsecond
	}
	measure := func(seg string) ServeRow {
		tier.StartMeasure()
		cl.Run(bucket)
		return serveRow(seg, tier.Sessions(), tier.StopMeasure())
	}

	var rows []ServeRow
	var notes []string
	rows = append(rows, measure("elastic-pre"))

	// Scale out: one host joins live; its processes become frontends and
	// new sessions land on them while the rest of the pool keeps running.
	pph := cl.NumProcesses() / len(cl.Network().G.Hosts)
	if _, err := cl.Join(); err != nil {
		notes = append(notes, fmt.Sprintf("elastic: join FAILED: %v", err))
		return rows, notes
	}
	total := cl.NumProcesses()
	joined := make([]int, 0, pph)
	for p := total - pph; p < total; p++ {
		joined = append(joined, p)
	}
	tier.AddFrontends(joined, cfg.Clients/8)
	rows = append(rows, measure("elastic-join"))

	// Graceful drain: stop the victim frontend's sessions, let in-flight
	// requests finish, then drain the host out of the fabric.
	victim := n - 1 // highest original proc: a pure frontend
	victimHost := victim / pph
	stopped := tier.StopFrontend(victim)
	cl.Run(20 * sim.Microsecond)
	if err := cl.Drain(victimHost); err != nil {
		notes = append(notes, fmt.Sprintf("elastic: drain FAILED: %v", err))
		return rows, notes
	}
	rows = append(rows, measure("elastic-post"))

	pre, post := rows[0], rows[len(rows)-1]
	if post.P99 <= pre.P99*ElasticP99Budget {
		notes = append(notes, fmt.Sprintf(
			"elastic: post-drain p99 %.2fus within %.1fx of pre-reconfig %.2fus (stopped %d sessions) — RECOVERED",
			post.P99, ElasticP99Budget, pre.P99, stopped))
	} else {
		notes = append(notes, fmt.Sprintf(
			"elastic: post-drain p99 %.2fus EXCEEDED %.1fx of pre-reconfig %.2fus",
			post.P99, ElasticP99Budget, pre.P99))
	}
	return rows, notes
}

// Serve regenerates the -fig serve table.
func Serve(sc Scale) *Table {
	t := &Table{
		ID:      "serve",
		Title:   "Serving tier: closed-loop clients on the Fabric API (KV / txn / SMR / elastic)",
		Columns: []string{"segment", "clients", "delivered", "req/s", "p50(us)", "p99(us)", "p999(us)"},
	}
	rows, notes := RunServe(sc)
	for _, r := range rows {
		t.AddRow(r.Segment, fmt.Sprintf("%d", r.Clients), fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%.0f", r.ReqPerSec), f2(r.P50), f2(r.P99), f2(r.P999))
	}
	t.Notes = append(t.Notes,
		"closed-loop sessions (1 outstanding request, exponential think) on per-session SplitMix64 state; latency client-observed from issue decision to last reply part",
		"kv rows: fixed 1ms think, so offered load scales with connected clients; requests are Reliable() when they write, best-effort when read-only",
		"smr rows: same state machine, fabric total order as the log (no leader) vs the in-tree Raft baseline over best-effort fabric transport")
	t.Notes = append(t.Notes, notes...)
	return t
}
