package replication

import (
	"math/rand"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// CephGroup is the §7.3.4 baseline: primary-backup replication where the
// client writes the primary and the primary updates each backup in
// sequence, every hop completing a disk write before acknowledging.
type CephGroup struct {
	Cfg      Config
	Stats    Stats
	cl       *core.Cluster
	primary  netsim.ProcID
	backups  []netsim.ProcID
	disks    map[netsim.ProcID]*Disk
	inflight map[uint64]*cephOp
	nextID   uint64
}

type cephOp struct {
	id      uint64
	client  netsim.ProcID
	started sim.Time
	done    func()
	// chain progress
	backupIdx int
}

type cephWrite struct {
	id   uint64
	from netsim.ProcID
}
type cephBackupWrite struct {
	id uint64
}
type cephBackupAck struct {
	id uint64
}
type cephAck struct {
	id uint64
}

// NewCephGroup deploys the baseline with the given primary and backups.
func NewCephGroup(cl *core.Cluster, primary netsim.ProcID, backups []netsim.ProcID, cfg Config) *CephGroup {
	g := &CephGroup{
		Cfg: cfg, cl: cl, primary: primary, backups: backups,
		disks:    make(map[netsim.ProcID]*Disk),
		inflight: make(map[uint64]*cephOp),
	}
	all := append([]netsim.ProcID{primary}, backups...)
	for _, r := range all {
		g.disks[r] = NewDisk(cfg.DiskMean, cfg.DiskJitter, rand.New(rand.NewSource(seed+int64(r))))
		r := r
		cl.Procs[r].OnRaw = func(src netsim.ProcID, data any) { g.onRaw(r, src, data) }
	}
	return g
}

// Write performs one replicated object write from client p; done fires
// when the client receives the final acknowledgment.
func (g *CephGroup) Write(p netsim.ProcID, size int, done func()) {
	g.nextID++
	op := &cephOp{id: g.nextID, client: p, started: g.cl.Net.Eng.Now(), done: done}
	g.inflight[op.id] = op
	// The client process needs a reply handler.
	g.cl.Procs[p].OnRaw = func(src netsim.ProcID, data any) {
		if ack, ok := data.(cephAck); ok {
			g.complete(ack.id)
		}
	}
	g.cl.Procs[p].SendRaw(g.primary, cephWrite{id: op.id, from: p}, size)
}

func (g *CephGroup) onRaw(self, src netsim.ProcID, data any) {
	eng := g.cl.Net.Eng
	switch m := data.(type) {
	case cephWrite:
		// Primary: write local disk, then the backup chain in sequence.
		g.disks[self].Write(eng, func() {
			g.nextBackup(m.id)
		})
	case cephBackupWrite:
		g.disks[self].Write(eng, func() {
			g.cl.Procs[self].SendRaw(g.primary, cephBackupAck{id: m.id}, 16)
		})
	case cephBackupAck:
		g.nextBackup(m.id)
	}
}

// nextBackup advances the sequential backup chain; when exhausted, the
// primary acknowledges the client.
func (g *CephGroup) nextBackup(id uint64) {
	op := g.inflight[id]
	if op == nil {
		return
	}
	if op.backupIdx < len(g.backups) {
		b := g.backups[op.backupIdx]
		op.backupIdx++
		g.cl.Procs[g.primary].SendRaw(b, cephBackupWrite{id: id}, 4096)
		return
	}
	g.cl.Procs[g.primary].SendRaw(op.client, cephAck{id: id}, 16)
}

func (g *CephGroup) complete(id uint64) {
	op := g.inflight[id]
	if op == nil {
		return
	}
	delete(g.inflight, id)
	g.Stats.Appends++
	g.Stats.Latency.Add(float64(g.cl.Net.Eng.Now()-op.started) / 1000)
	if op.done != nil {
		op.done()
	}
}
