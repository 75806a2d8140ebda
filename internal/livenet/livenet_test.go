package livenet

import (
	"errors"
	"reflect"
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/oracle"
	"onepipe/internal/sim"
)

// starCase is one run of the star: an impairment at the switch and whether
// a host joins and another drains mid-run.
type starCase struct {
	name    string
	seed    int64
	impair  *netsim.Impairment
	elastic bool
}

var starCases = []starCase{
	{name: "plain", seed: 1},
	{name: "loss25", seed: 7, impair: &netsim.Impairment{Loss: 0.25}},
	{name: "burst-jitter-delay", seed: 11, impair: &netsim.Impairment{
		GE:         netsim.BurstLoss(0.15, 3),
		Jitter:     2 * sim.Microsecond,
		ExtraDelay: 3 * sim.Microsecond,
	}},
	{name: "join-drain", seed: 3, elastic: true},
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
	settle     = 2 * sim.Millisecond
	joinRound  = 10
	drainRound = 25
	leaver     = 3
)

// starRun is what one run leaves: the oracle log of every accepted
// scattering, every delivery and, in the elastic case, the join and the
// drain.
type starRun struct {
	log     oracle.Log
	dropped uint64
}

// record installs a recorder on process p of n that appends to l.
func record(n *Net, p int, l *oracle.Log) {
	n.Proc(p).OnDeliver = func(d core.Delivery) {
		l.Deliveries[p] = append(l.Deliveries[p], oracle.Delivery{TS: d.TS, Src: d.Src, ID: d.Data.(oracle.ID), Reliable: d.Reliable})
	}
}

func (c starCase) run(t *testing.T) starRun {
	t.Helper()
	n := New(Config{Hosts: starHosts, Seed: c.seed, Impair: c.impair})
	r := starRun{log: oracle.Log{Deliveries: make([][]oracle.Delivery, starHosts+1)}}
	for p := 0; p < starHosts; p++ {
		record(n, p, &r.log)
	}
	for k := 0; k < rounds; k++ {
		if c.elastic && k == joinRound {
			// Join floors the joiner's timestamps at the shared clock.
			epoch := n.eng.Now()
			p := n.Join()
			record(n, p, &r.log)
			r.log.Joined = map[netsim.ProcID]sim.Time{netsim.ProcID(p): epoch}
		}
		if c.elastic && k == drainRound {
			err := n.Drain(leaver, func() {
				r.log.Drained = map[netsim.ProcID]oracle.Drain{leaver: {LogLen: len(r.log.Deliveries[leaver]), At: n.eng.Now()}}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		reliable := k%2 == 1
		for p := 0; p < n.NumProcs(); p++ {
			s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(p), Seq: int32(k)}, Src: netsim.ProcID(p), Reliable: reliable}
			var msgs []core.Message
			for q := 0; q < n.NumProcs(); q++ {
				if q != p && !(c.elastic && q == leaver) {
					msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Data: s.ID, Size: 64})
					s.Dsts = append(s.Dsts, netsim.ProcID(q))
				}
			}
			err := n.Proc(p).SendOpts(msgs, core.SendOptions{Reliable: reliable})
			if c.elastic && p == leaver && k >= drainRound && errors.Is(err, core.ErrClosed) {
				continue // refused by the drain
			}
			if err != nil {
				t.Fatalf("round %d: send from %d: %v", k, p, err)
			}
			r.log.Sends = append(r.log.Sends, s)
		}
		n.RunFor(roundGap)
	}
	n.RunFor(settle)
	r.dropped = n.SwitchStats().Dropped
	return r
}

// TestStar runs every case twice on the deterministic star and checks that
// the same seed gives the identical delivery log and that the log upholds
// the delivery contract (internal/oracle): each class (best-effort,
// reliable) in (ts, src) order at every receiver and agreed across them,
// nothing delivered twice or unsent, every reliable scattering delivered
// everywhere, the joiner above its epoch and the leaver silent after its
// drain. On a lossless star every best-effort member is delivered too.
func TestStar(t *testing.T) {
	for _, c := range starCases {
		t.Run(c.name, func(t *testing.T) {
			r := c.run(t)
			if again := c.run(t); !reflect.DeepEqual(r, again) {
				t.Fatal("the same seed gave a different run")
			}
			for _, v := range oracle.Check(&r.log) {
				t.Error(v)
			}
			members := 0
			for _, s := range r.log.Sends {
				members += len(s.Dsts)
			}
			if got := r.log.TotalDeliveries(); c.impair == nil && got != members {
				t.Fatalf("lossless star delivered %d of %d members", got, members)
			}
			if c.impair != nil && r.dropped == 0 {
				t.Fatal("the impairment never dropped a packet")
			}
			if c.elastic && (len(r.log.Drained) == 0 || len(r.log.Deliveries[starHosts]) == 0) {
				t.Fatalf("host %d drained: %v; joined host delivered %d", leaver, r.log.Drained, len(r.log.Deliveries[starHosts]))
			}
		})
	}
}

// TestLiveDelivery sends one best-effort message across the star and checks
// that its receiver delivers exactly it.
func TestLiveDelivery(t *testing.T) {
	n := New(Config{Hosts: 4, Seed: 1})
	var got []any
	n.Proc(1).OnDeliver = func(d core.Delivery) { got = append(got, d.Data) }
	if err := n.Proc(0).SendOpts([]core.Message{{Dst: 1, Data: "live", Size: 64}}, core.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	n.RunFor(settle)
	if len(got) != 1 || got[0] != "live" {
		t.Fatalf("got %v", got)
	}
}

// TestLiveTotalOrder has every host scatter to every other host, 20 times
// each with the senders interleaved, and checks that every receiver
// delivers all of it, upholding the delivery contract.
func TestLiveTotalOrder(t *testing.T) {
	const hosts, sends = 4, 20
	n := New(Config{Hosts: hosts, Seed: 1})
	log := oracle.Log{Deliveries: make([][]oracle.Delivery, hosts)}
	for i := 0; i < hosts; i++ {
		record(n, i, &log)
	}
	for k := 0; k < sends; k++ {
		for p := 0; p < hosts; p++ {
			s := oracle.Send{ID: oracle.ID{Src: netsim.ProcID(p), Seq: int32(k)}, Src: netsim.ProcID(p)}
			var msgs []core.Message
			for q := 0; q < hosts; q++ {
				if q != p {
					msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Data: s.ID, Size: 64})
					s.Dsts = append(s.Dsts, netsim.ProcID(q))
				}
			}
			if err := n.Proc(p).SendOpts(msgs, core.SendOptions{}); err != nil {
				t.Fatal(err)
			}
			log.Sends = append(log.Sends, s)
			n.RunFor(sim.Microsecond)
		}
	}
	n.RunFor(settle)
	for _, v := range oracle.Check(&log) {
		t.Error(v)
	}
	for i, l := range log.Deliveries {
		if len(l) != (hosts-1)*sends {
			t.Fatalf("proc %d delivered %d of %d", i, len(l), (hosts-1)*sends)
		}
	}
}

// TestLiveReliable sends one reliable scattering to two receivers and
// checks that both members are delivered.
func TestLiveReliable(t *testing.T) {
	n := New(Config{Hosts: 3, Seed: 1})
	delivered := 0
	for i := 1; i < 3; i++ {
		n.Proc(i).OnDeliver = func(core.Delivery) { delivered++ }
	}
	if err := n.Proc(0).SendOpts([]core.Message{{Dst: 1, Size: 64}, {Dst: 2, Size: 64}}, core.SendOptions{Reliable: true}); err != nil {
		t.Fatal(err)
	}
	n.RunFor(settle)
	if delivered != 2 {
		t.Fatalf("reliable scattering delivered %d of 2", delivered)
	}
}
