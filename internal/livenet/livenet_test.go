package livenet

import (
	"errors"
	"reflect"
	"testing"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
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

// tag names one scattering: its sender and round.
type tag struct{ src, round int }

// member is one message of a scattering: its receiver and scattering.
type member struct {
	dst int
	tag tag
}

// entry is one delivery in a receiver's log.
type entry struct {
	ts       sim.Time
	src      netsim.ProcID
	reliable bool
	tag      tag
}

// starRun is what one run leaves: every receiver's delivery log, and every
// member of every accepted scattering with whether it was reliable.
type starRun struct {
	logs    [][]entry
	sent    map[member]bool
	dropped uint64
	drained bool
}

func (c starCase) run(t *testing.T) starRun {
	t.Helper()
	n := New(Config{Hosts: starHosts, Seed: c.seed, Impair: c.impair})
	r := starRun{logs: make([][]entry, starHosts+1), sent: make(map[member]bool)}
	listen := func(p int) {
		n.Proc(p).OnDeliver = func(d core.Delivery) {
			r.logs[p] = append(r.logs[p], entry{d.TS, d.Src, d.Reliable, d.Data.(tag)})
		}
	}
	for p := 0; p < starHosts; p++ {
		listen(p)
	}
	for k := 0; k < rounds; k++ {
		if c.elastic && k == joinRound {
			listen(n.Join())
		}
		if c.elastic && k == drainRound {
			if err := n.Drain(leaver); err != nil {
				t.Fatal(err)
			}
		}
		reliable := k%2 == 1
		for p := 0; p < n.NumProcs(); p++ {
			var msgs []core.Message
			for q := 0; q < n.NumProcs(); q++ {
				if q != p && !(c.elastic && q == leaver) {
					msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Data: tag{p, k}, Size: 64})
				}
			}
			err := n.Proc(p).SendOpts(msgs, core.SendOptions{Reliable: reliable})
			if c.elastic && p == leaver && k >= drainRound && errors.Is(err, core.ErrClosed) {
				continue // refused by the drain
			}
			if err != nil {
				t.Fatalf("round %d: send from %d: %v", k, p, err)
			}
			for _, m := range msgs {
				r.sent[member{int(m.Dst), tag{p, k}}] = reliable
			}
		}
		n.RunFor(roundGap)
	}
	n.RunFor(settle)
	r.dropped = n.SwitchStats().Dropped
	r.drained = n.Drained(leaver)
	return r
}

// TestStar runs every case twice on the deterministic star and checks that
// the same seed gives the identical delivery log, that every receiver
// delivers each class (best-effort, reliable) in (ts, src) order, and that
// every member of a reliable scattering — and, on a lossless star, of a
// best-effort one — is delivered exactly once, with nothing delivered twice
// or unsent.
func TestStar(t *testing.T) {
	for _, c := range starCases {
		t.Run(c.name, func(t *testing.T) {
			r := c.run(t)
			if again := c.run(t); !reflect.DeepEqual(r, again) {
				t.Fatal("the same seed gave a different run")
			}
			count := make(map[member]int)
			for p, log := range r.logs {
				var last [2]*entry // per class
				for j := range log {
					e := &log[j]
					cls := 0
					if e.reliable {
						cls = 1
					}
					if prev := last[cls]; prev != nil && (e.ts < prev.ts || e.ts == prev.ts && e.src < prev.src) {
						t.Fatalf("proc %d delivered %+v after %+v", p, *e, *prev)
					}
					last[cls] = e
					count[member{p, e.tag}]++
				}
			}
			for m, got := range count {
				if _, ok := r.sent[m]; !ok || got > 1 {
					t.Fatalf("%+v delivered %d times; sent: %v", m, got, ok)
				}
			}
			for m, reliable := range r.sent {
				if (reliable || c.impair == nil) && count[m] != 1 {
					t.Fatalf("%+v (reliable %v) delivered %d times, want once", m, reliable, count[m])
				}
			}
			if c.impair != nil && r.dropped == 0 {
				t.Fatal("the impairment never dropped a packet")
			}
			if c.elastic && (!r.drained || len(r.logs[starHosts]) == 0) {
				t.Fatalf("host %d drained: %v; joined host delivered %d", leaver, r.drained, len(r.logs[starHosts]))
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
// delivers all of it in timestamp order.
func TestLiveTotalOrder(t *testing.T) {
	const hosts, sends = 4, 20
	n := New(Config{Hosts: hosts, Seed: 1})
	logs := make([][]sim.Time, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		n.Proc(i).OnDeliver = func(d core.Delivery) { logs[i] = append(logs[i], d.TS) }
	}
	for k := 0; k < sends; k++ {
		for p := 0; p < hosts; p++ {
			var msgs []core.Message
			for q := 0; q < hosts; q++ {
				if q != p {
					msgs = append(msgs, core.Message{Dst: netsim.ProcID(q), Size: 64})
				}
			}
			if err := n.Proc(p).SendOpts(msgs, core.SendOptions{}); err != nil {
				t.Fatal(err)
			}
			n.RunFor(sim.Microsecond)
		}
	}
	n.RunFor(settle)
	for i, log := range logs {
		if len(log) != (hosts-1)*sends {
			t.Fatalf("proc %d delivered %d of %d", i, len(log), (hosts-1)*sends)
		}
		for j := 1; j < len(log); j++ {
			if log[j] < log[j-1] {
				t.Fatalf("proc %d delivered out of order at %d", i, j)
			}
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
