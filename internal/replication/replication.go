// Package replication implements §2.2.2's 1-RTT replication on best-effort
// 1Pipe and the Ceph-style primary-backup chain it is compared against in
// §7.3.4.
//
// With 1Pipe, a client scatters a log entry directly to all replicas; the
// network serializes concurrent clients, so every replica appends the same
// sequence. Consistency is verified without extra round trips: each
// replica maintains a running checksum chain, returns it with its
// acknowledgment, and the client accepts the append once all checksums
// agree. Packet loss shows up as a per-(client,replica) sequence gap: the
// replica rejects, and the client retransmits from the first rejected
// entry.
//
// Deviation from the paper: §2.2.2 sums *message timestamps* of all
// clients into one checksum. A best-effort retransmission necessarily
// carries a new timestamp, so after any loss the replicas that applied the
// original and those that applied the retransmission could never agree
// again. This implementation chains a per-sender checksum over (sequence
// number, payload hash) instead: it certifies the same thing the client
// needs — every replica applied exactly its entries 0..seq, in order — and
// it reconverges deterministically after retransmission. Cross-sender
// interleaving is 1Pipe's own total-order guarantee; after best-effort
// loss recovery, interleavings may differ around the recovered entry, which
// the ClientConsistent check makes observable.
//
// The baseline is a primary-backup chain as in Ceph OSD: the client writes
// the primary, which writes its disk and then updates each backup in
// sequence — three disk writes and three RTTs end to end, versus one RTT
// plus one (parallel) disk write for 1Pipe.
package replication

import (
	"math/rand"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// Disk models an SSD write path as a FIFO station with jittered service
// time (Intel DC S3700-class, per the paper's Ceph experiment).
type Disk struct {
	st     sim.Station
	mean   sim.Time
	jitter sim.Time
	rng    *rand.Rand
}

// NewDisk builds a disk with the given mean write latency and ± jitter.
func NewDisk(mean, jitter sim.Time, rng *rand.Rand) *Disk {
	return &Disk{mean: mean, jitter: jitter, rng: rng}
}

// Write schedules fn when the write completes.
func (d *Disk) Write(eng *sim.Engine, fn func()) {
	svc := d.mean
	if d.jitter > 0 {
		svc += sim.Time(d.rng.Int63n(int64(2*d.jitter))) - d.jitter
	}
	eng.At(d.st.Serve(eng.Now(), svc), fn)
}

// Config parameterizes a replication deployment.
type Config struct {
	// DiskMean/DiskJitter model the replica write path; zero disables the
	// disk (pure in-memory log replication).
	DiskMean, DiskJitter sim.Time
}

const (
	// retryTimeout resolves lost replies.
	retryTimeout = 300 * sim.Microsecond
	seed         = 1
)

// DefaultConfig returns an in-memory log replication setup.
func DefaultConfig() Config { return Config{} }

// CephConfig returns the §7.3.4 SSD-backed configuration.
func CephConfig() Config {
	return Config{DiskMean: 45 * sim.Microsecond, DiskJitter: 18 * sim.Microsecond}
}

// Stats is a run's measurement.
type Stats struct {
	Appends      uint64
	Retransmits  uint64
	Latency      stats.Sample // microseconds, client-observed
	ChecksumErrs uint64
}

// Entry is one replicated log record.
type Entry struct {
	Client netsim.ProcID
	Seq    uint64
	TS     sim.Time
	Data   any
}

// Group is a 1-RTT replication group over best-effort 1Pipe.
type Group struct {
	Cfg      Config
	Stats    Stats
	cl       *core.Cluster
	replicas []netsim.ProcID
	states   map[netsim.ProcID]*replicaState
	clients  map[netsim.ProcID]*clientState
}

type replicaState struct {
	g    *Group
	proc *core.Proc
	log  []Entry
	// Per-client checksum chain and its per-sequence history (the history
	// lets duplicates be re-acknowledged with the checksum the original
	// apply produced; a production implementation would prune it below
	// the acknowledged watermark).
	ck       map[netsim.ProcID]uint64
	ckAt     map[netsim.ProcID][]uint64
	expected map[netsim.ProcID]uint64 // per-client next sequence
	disk     *Disk
}

// chain mixes one entry into a per-client checksum.
func chain(prev, seq, payload uint64) uint64 {
	h := prev ^ (seq + 0x9e3779b97f4a7c15)
	h *= 1099511628211
	h ^= payload
	h *= 1099511628211
	return h
}

type clientState struct {
	g       *Group
	proc    *core.Proc
	nextSeq uint64
	// pending appends by sequence number.
	pending map[uint64]*appendOp
	// unacked entries kept for retransmission, in sequence order.
	window []Entry
}

type appendOp struct {
	cs        *clientState
	entry     Entry
	started   sim.Time
	replies   int
	checksums map[netsim.ProcID]uint64
	done      func(ok bool)
	// retry retransmits when replies or entries are lost without a
	// visible reject; resolution stops it.
	retry sim.Timer
}

// messages
type appendMsg struct {
	entry Entry
}
type appendAck struct {
	client   netsim.ProcID
	seq      uint64
	checksum uint64
	ok       bool
	expected uint64
}

// NewGroup deploys a replication group: the given replica processes hold
// the log; any other process may append through a Client.
func NewGroup(cl *core.Cluster, replicas []netsim.ProcID, cfg Config) *Group {
	g := &Group{
		Cfg: cfg, cl: cl, replicas: replicas,
		states:  make(map[netsim.ProcID]*replicaState),
		clients: make(map[netsim.ProcID]*clientState),
	}
	for _, r := range replicas {
		rs := &replicaState{
			g:        g,
			proc:     cl.Procs[r],
			ck:       make(map[netsim.ProcID]uint64),
			ckAt:     make(map[netsim.ProcID][]uint64),
			expected: make(map[netsim.ProcID]uint64),
		}
		if cfg.DiskMean > 0 {
			rs.disk = NewDisk(cfg.DiskMean, cfg.DiskJitter, rand.New(rand.NewSource(seed+int64(r))))
		}
		g.states[r] = rs
		rs.proc.OnDeliver = rs.onDeliver
	}
	return g
}

// Client returns the append handle for process p.
func (g *Group) Client(p netsim.ProcID) *Client {
	cs := g.clients[p]
	if cs == nil {
		cs = &clientState{g: g, proc: g.cl.Procs[p], pending: make(map[uint64]*appendOp)}
		g.clients[p] = cs
		cs.proc.OnRaw = cs.onRaw
	}
	return &Client{cs: cs}
}

// Client appends entries to the group.
type Client struct {
	cs *clientState
}

// Append replicates data to every replica; done is invoked with the
// outcome once all replicas acknowledged with matching checksums
// (normally one round trip).
func (c *Client) Append(data any, size int, done func(ok bool)) {
	cs := c.cs
	g := cs.g
	e := Entry{Client: cs.proc.ID, Seq: cs.nextSeq, Data: data}
	cs.nextSeq++
	op := &appendOp{
		cs: cs, entry: e, started: g.cl.Net.Eng.Now(),
		checksums: make(map[netsim.ProcID]uint64), done: done,
	}
	op.retry.Init(g.cl.Net.Eng, (*appendRetry)(op))
	cs.pending[e.Seq] = op
	cs.window = append(cs.window, e)
	cs.sendEntry(e, size)
	op.retry.Reset(retryTimeout)
}

func (cs *clientState) sendEntry(e Entry, size int) {
	msgs := make([]core.Message, 0, len(cs.g.replicas))
	for _, r := range cs.g.replicas {
		msgs = append(msgs, core.Message{Dst: r, Data: appendMsg{entry: e}, Size: size})
	}
	// Best-effort on purpose: §2.2.2's 1-RTT replication carries its own
	// sequence numbers and client-driven retransmission, so the reliable
	// plane's 2PC would only add latency.
	cs.proc.SendOpts(msgs, core.SendOptions{})
}

// appendRetry is an append's retry-timer handler: retransmit from its
// sequence onward and wait again.
type appendRetry appendOp

func (r *appendRetry) Fire() {
	op := (*appendOp)(r)
	op.cs.retransmitFrom(op.entry.Seq)
	op.retry.Reset(retryTimeout)
}

// retransmitFrom resends every unacknowledged entry at or after seq, in
// order, preserving the original sequence numbers.
func (cs *clientState) retransmitFrom(seq uint64) {
	for _, e := range cs.window {
		if e.Seq < seq {
			continue
		}
		if cs.pending[e.Seq] != nil {
			cs.g.Stats.Retransmits++
			cs.sendEntry(e, 64)
		}
	}
}

// onDeliver appends 1Pipe-ordered entries at a replica.
func (rs *replicaState) onDeliver(d core.Delivery) {
	m, ok := d.Data.(appendMsg)
	if !ok {
		return
	}
	e := m.entry
	exp := rs.expected[e.Client]
	ack := appendAck{client: e.Client, seq: e.Seq, expected: exp}
	switch {
	case e.Seq < exp:
		// Duplicate of an applied entry: re-ack with the checksum its
		// original apply produced.
		ack.ok = true
		ack.checksum = rs.ckAt[e.Client][e.Seq]
	case e.Seq > exp:
		// Gap: an earlier entry from this client was lost. Reject; the
		// client retransmits from `expected` (§2.2.2).
		ack.ok = false
	default:
		e.TS = d.TS
		rs.log = append(rs.log, e)
		rs.ck[e.Client] = chain(rs.ck[e.Client], e.Seq, payloadHash(e.Data))
		rs.ckAt[e.Client] = append(rs.ckAt[e.Client], rs.ck[e.Client])
		rs.expected[e.Client] = e.Seq + 1
		ack.ok = true
		ack.checksum = rs.ck[e.Client]
	}
	reply := func() { rs.proc.SendRaw(d.Src, ack, 24) }
	if ack.ok && e.Seq == exp && rs.disk != nil {
		rs.disk.Write(rs.g.cl.Net.Eng, reply)
	} else {
		reply()
	}
}

// onRaw collects acknowledgments at the client.
func (cs *clientState) onRaw(src netsim.ProcID, data any) {
	ack, ok := data.(appendAck)
	if !ok || ack.client != cs.proc.ID {
		return
	}
	op := cs.pending[ack.seq]
	if op == nil {
		return
	}
	if !ack.ok {
		// Sequence gap at this replica: retransmit the missing range.
		cs.retransmitFrom(ack.expected)
		return
	}
	if _, seen := op.checksums[src]; seen {
		return
	}
	op.checksums[src] = ack.checksum
	op.replies++
	if op.replies < len(cs.g.replicas) {
		return
	}
	// All replicas acknowledged: verify checksum agreement.
	var first uint64
	same := true
	i := 0
	for _, ck := range op.checksums {
		if i == 0 {
			first = ck
		} else if ck != first {
			same = false
		}
		i++
	}
	op.retry.Stop()
	delete(cs.pending, ack.seq)
	cs.compactWindow()
	g := cs.g
	if !same {
		// Diverging logs (possible only around failures): surface to the
		// application's recovery protocol.
		g.Stats.ChecksumErrs++
		if op.done != nil {
			op.done(false)
		}
		return
	}
	g.Stats.Appends++
	g.Stats.Latency.Add(float64(g.cl.Net.Eng.Now()-op.started) / 1000)
	if op.done != nil {
		op.done(true)
	}
}

func (cs *clientState) compactWindow() {
	kept := cs.window[:0]
	for _, e := range cs.window {
		if _, still := cs.pending[e.Seq]; still {
			kept = append(kept, e)
		}
	}
	cs.window = kept
}

// payloadHash folds an entry payload into the checksum chain. Payloads in
// the simulation are arbitrary Go values; hash the ones we can, and fall
// back to a constant (the (client, seq) chain still certifies ordering).
func payloadHash(data any) uint64 {
	switch v := data.(type) {
	case int:
		return uint64(v) * 0x9e3779b97f4a7c15
	case uint64:
		return v * 0x9e3779b97f4a7c15
	case string:
		h := uint64(14695981039346656037)
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * 1099511628211
		}
		return h
	default:
		return 0x517cc1b727220a95
	}
}

// Log returns a replica's current log (tests and recovery).
func (g *Group) Log(r netsim.ProcID) []Entry { return g.states[r].log }

// ConsistentPrefix returns the length of the longest common log prefix
// across all replicas — the recovery protocol truncates to it.
func (g *Group) ConsistentPrefix() int {
	n := -1
	for _, r := range g.replicas {
		if l := len(g.states[r].log); n < 0 || l < n {
			n = l
		}
	}
	if n < 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		var ref Entry
		for j, r := range g.replicas {
			e := g.states[r].log[i]
			if j == 0 {
				ref = e
			} else if e.Client != ref.Client || e.Seq != ref.Seq {
				return i
			}
		}
	}
	return n
}

// ClientConsistent reports whether every replica applied every client's
// entries as the same gap-free sequence — the guarantee the per-client
// checksum certifies, which holds even after best-effort loss recovery.
func (g *Group) ClientConsistent() bool {
	perClient := make(map[netsim.ProcID]map[netsim.ProcID][]uint64) // client -> replica -> seqs
	for _, r := range g.replicas {
		for _, e := range g.states[r].log {
			m := perClient[e.Client]
			if m == nil {
				m = make(map[netsim.ProcID][]uint64)
				perClient[e.Client] = m
			}
			m[r] = append(m[r], e.Seq)
		}
	}
	for _, byReplica := range perClient {
		var ref []uint64
		first := true
		for _, seqs := range byReplica {
			for i, s := range seqs {
				if s != uint64(i) {
					return false // gap or reordering within a client
				}
			}
			if first {
				ref = seqs
				first = false
			} else if len(seqs) != len(ref) {
				return false
			}
		}
	}
	return true
}
