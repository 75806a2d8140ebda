package udpnet

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
)

// The tests in this file run the fabric on the in-memory transport: no
// socket, no sleep, and a run replays exactly from its seed.

// starRun is what one run leaves: the oracle log of every accepted
// scattering, every delivery and any join or drain, and the switch's and
// every host's counters.
type starRun struct {
	log   oracle.Log
	sw    starswitch.Stats
	hosts []core.HostStats
}

// star is a fabric on the in-memory transport that records into a starRun.
// A message's Data names its scattering: sender and sequence number.
type star struct {
	t *testing.T
	m *memTransport
	c *Cluster
	r starRun
}

// settle is how long a run goes on after its last send.
const settle = 2 * sim.Millisecond

// replay runs scenario twice, each time on a fresh star of one-process
// hosts with core's simulator beacon interval. It fails unless the two
// runs are identical, stats included, checks the first against the
// delivery contract (internal/oracle) and returns it.
func replay(t *testing.T, hosts int, seed int64, imp *netsim.Impairment, scenario func(*star)) starRun {
	t.Helper()
	run := func() starRun {
		m := newMemTransport(seed)
		c, err := start(Config{Hosts: hosts, ProcsPerHost: 1, Seed: seed, Impair: imp,
			BeaconInterval: time.Duration(core.DefaultConfig().BeaconInterval)}, m)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := &star{t: t, m: m, c: c}
		for p := 0; p < hosts; p++ {
			s.record(p)
		}
		scenario(s)
		m.eng.RunFor(settle)
		s.r.sw = c.Switch.Stats()
		for _, h := range c.snapshot() {
			s.r.hosts = append(s.r.hosts, h.core.Stats)
		}
		return s.r
	}
	r := run()
	if again := run(); !reflect.DeepEqual(r, again) {
		t.Fatal("the same seed gave a different run")
	}
	for _, v := range oracle.Check(&r.log) {
		t.Error(v)
	}
	return r
}

func (s *star) record(p int) {
	for len(s.r.log.Deliveries) <= p {
		s.r.log.Deliveries = append(s.r.log.Deliveries, nil)
	}
	s.c.Proc(p).OnDeliver(func(d core.Delivery) {
		b := d.Data.([]byte)
		s.r.log.Deliveries[p] = append(s.r.log.Deliveries[p], oracle.Delivery{TS: d.TS, Src: d.Src, Reliable: d.Reliable,
			ID: oracle.ID{Src: netsim.ProcID(b[0]), Seq: int32(b[1])}})
	})
}

// send scatters one message from p to each of dsts as p's k-th scattering
// and logs it. Only a drained host may refuse it.
func (s *star) send(p, k int, reliable bool, dsts []netsim.ProcID) {
	msgs := make([]core.Message, len(dsts))
	for i, q := range dsts {
		msgs[i] = core.Message{Dst: q, Data: []byte{byte(p), byte(k)}, Size: 2}
	}
	err := s.c.Proc(p).SendOpts(msgs, core.SendOptions{Reliable: reliable})
	if errors.Is(err, core.ErrClosed) && s.c.Switch.Drained(p) {
		return
	}
	if err != nil {
		s.t.Fatalf("send %d from %d: %v", k, p, err)
	}
	s.r.log.Sends = append(s.r.log.Sends, oracle.Send{ID: oracle.ID{Src: netsim.ProcID(p), Seq: int32(k)},
		Src: netsim.ProcID(p), Dsts: dsts, Reliable: reliable})
}

// others lists every process but p and skip.
func (s *star) others(p, skip int) []netsim.ProcID {
	var dsts []netsim.ProcID
	for q := 0; q < s.c.NumProcs(); q++ {
		if q != p && q != skip {
			dsts = append(dsts, netsim.ProcID(q))
		}
	}
	return dsts
}

// starCase is one run of the star: an impairment at the switch and whether
// a host joins and another drains mid-run. digest pins the run.
type starCase struct {
	name    string
	seed    int64
	impair  *netsim.Impairment
	elastic bool
	digest  string
}

var starCases = []starCase{
	{name: "plain", seed: 1, digest: "e85d43d60f5830d9"},
	{name: "loss25", seed: 7, impair: &netsim.Impairment{Loss: 0.25}, digest: "b789d15b4c5c56b1"},
	{name: "burst-jitter-delay", seed: 11, impair: &netsim.Impairment{
		GE:         netsim.BurstLoss(0.15, 3),
		Jitter:     2 * sim.Microsecond,
		ExtraDelay: 3 * sim.Microsecond,
	}, digest: "4687c346ec42d93d"},
	{name: "reorder", seed: 13, impair: &netsim.Impairment{ReorderRate: 0.1, ReorderDelay: 5 * sim.Microsecond}, digest: "a52c4ecf2525465f"},
	{name: "join-drain", seed: 3, elastic: true, digest: "55d38f39ba87445c"},
}

// The traffic every case runs: in each round every process scatters one
// message to every other process, best-effort in even rounds and reliable
// in odd ones. The elastic case joins host starHosts at joinRound and
// drains leaver at drainRound; leaver only ever sends, so no message is
// addressed to a host that leaves.
const (
	starHosts  = 4
	rounds     = 40
	roundGap   = 4 * sim.Microsecond
	joinRound  = 10
	drainRound = 25
	leaver     = 3
)

func (c starCase) traffic(s *star) {
	skip := -1
	if c.elastic {
		skip = leaver
	}
	for k := 0; k < rounds; k++ {
		if c.elastic && k == joinRound {
			// Join floors the joiner's timestamps at the shared clock.
			epoch := s.c.Now()
			p, err := s.c.Join()
			if err != nil {
				s.t.Fatal(err)
			}
			s.record(p)
			s.r.log.Joined = map[netsim.ProcID]sim.Time{netsim.ProcID(p): epoch}
		}
		if c.elastic && k == drainRound {
			if err := s.c.Drain(leaver); err != nil {
				s.t.Fatal(err)
			}
			s.r.log.Drained = map[netsim.ProcID]oracle.Drain{leaver: {LogLen: len(s.r.log.Deliveries[leaver]), At: s.c.Now()}}
		}
		for p := 0; p < s.c.NumProcs(); p++ {
			s.send(p, k, k%2 == 1, s.others(p, skip))
		}
		s.m.eng.RunFor(roundGap)
	}
}

// TestStar runs every case twice on the in-memory star and checks that the
// same seed gives the identical run — delivery log, switch and host
// counters — and that the log upholds the delivery contract: each class
// (best-effort, reliable) in (ts, src) order at every receiver and agreed
// across them, nothing delivered twice or unsent, every reliable scattering
// delivered everywhere, the joiner above its epoch and the leaver silent
// after its drain. On a star that drops nothing every member is delivered,
// except a best-effort one the switch held back until the barrier had
// passed it, which its receiver refuses with a NAK. The pinned digest
// catches a run that differs between processes (map order) though it
// replays within one.
func TestStar(t *testing.T) {
	for _, c := range starCases {
		t.Run(c.name, func(t *testing.T) {
			r := replay(t, starHosts, c.seed, c.impair, c.traffic)
			members := 0
			for _, s := range r.log.Sends {
				members += len(s.Dsts)
			}
			var naks uint64
			for _, h := range r.hosts {
				naks += h.Naks
			}
			lossy := c.impair != nil && (c.impair.Loss > 0 || c.impair.GE != nil)
			if got := r.log.TotalDeliveries(); !lossy && uint64(members-got) != naks {
				t.Fatalf("lossless star delivered %d of %d members with %d late arrivals refused", got, members, naks)
			}
			if c.impair != nil && c.impair.ReorderRate > 0 && naks == 0 {
				t.Fatal("no packet was overtaken past the barrier")
			}
			if lossy && r.sw.Dropped == 0 {
				t.Fatal("the impairment never dropped a packet")
			}
			if c.elastic && (len(r.log.Drained) == 0 || len(r.log.Deliveries[starHosts]) == 0) {
				t.Fatalf("host %d drained: %v; joined host delivered %d", leaver, r.log.Drained, len(r.log.Deliveries[starHosts]))
			}
			if d := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", r))))[:16]; d != c.digest {
				t.Errorf("run digest %s, pinned %s", d, c.digest)
			}
		})
	}
}

// TestLiveDelivery sends one best-effort message across the star and checks
// that its receiver delivers exactly it.
func TestLiveDelivery(t *testing.T) {
	r := replay(t, 4, 1, nil, func(s *star) { s.send(0, 0, false, []netsim.ProcID{1}) })
	if got := r.log.Deliveries[1]; len(got) != 1 || got[0].ID != (oracle.ID{Src: 0, Seq: 0}) || r.log.TotalDeliveries() != 1 {
		t.Fatalf("delivered %v", r.log.Deliveries)
	}
}

// TestLiveTotalOrder has every host scatter to every other host, 20 times
// each with the senders interleaved, and checks that every receiver
// delivers all of it, upholding the delivery contract.
func TestLiveTotalOrder(t *testing.T) {
	const hosts, sends = 4, 20
	r := replay(t, hosts, 1, nil, func(s *star) {
		for k := 0; k < sends; k++ {
			for p := 0; p < hosts; p++ {
				s.send(p, k, false, s.others(p, -1))
				s.m.eng.RunFor(sim.Microsecond)
			}
		}
	})
	for i, l := range r.log.Deliveries {
		if len(l) != (hosts-1)*sends {
			t.Fatalf("proc %d delivered %d of %d", i, len(l), (hosts-1)*sends)
		}
	}
}

// TestLiveReliable sends one reliable scattering to two receivers and
// checks that both members are delivered.
func TestLiveReliable(t *testing.T) {
	r := replay(t, 3, 1, nil, func(s *star) { s.send(0, 0, true, []netsim.ProcID{1, 2}) })
	if got := r.log.TotalDeliveries(); got != 2 {
		t.Fatalf("reliable scattering delivered %d of 2", got)
	}
}
