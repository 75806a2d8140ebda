package onepipe_test

import (
	"fmt"
	"slices"
	"testing"

	"onepipe"
	"onepipe/internal/netsim"
)

// collectDeliveries runs a fixed multi-round workload — bursty scatterings
// that coalesce into frames when batching is on, a mix of best-effort and
// reliable traffic, and payloads big enough to split runs across frames —
// and returns every process's delivery log as (ts, src, payload) strings.
func collectDeliveries(t *testing.T, mut func(*onepipe.Config)) [][]string {
	t.Helper()
	cfg := onepipe.Defaults()
	cfg.Seed = 7
	if mut != nil {
		mut(&cfg)
	}
	cl := onepipe.NewCluster(cfg)
	n := cl.NumProcesses()

	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		i := i
		cl.Process(i).OnDeliver(func(d onepipe.Delivery) {
			logs[i] = append(logs[i], fmt.Sprintf("%d/%d/%v", d.TS, d.Src, d.Data))
		})
	}
	cl.Run(50 * onepipe.Microsecond)

	for round := 0; round < 4; round++ {
		// Back-to-back scatterings from each sender at one sim instant:
		// same-conn members land inside the batch window and coalesce.
		for sender := 0; sender < n; sender += 2 {
			for burst := 0; burst < 3; burst++ {
				var msgs []onepipe.Message
				for k := 0; k < 3; k++ {
					dst := (sender + 1 + k) % n
					msgs = append(msgs, onepipe.Message{
						Dst:  onepipe.ProcID(dst),
						Data: fmt.Sprintf("r%d/s%d/b%d/k%d", round, sender, burst, k),
						Size: 64 + 128*burst,
					})
				}
				var opts []onepipe.SendOption
				if (sender+burst)%2 == 1 {
					opts = append(opts, onepipe.Reliable())
				}
				if err := cl.Process(sender).Send(msgs, opts...); err != nil {
					t.Fatalf("send (round %d sender %d burst %d): %v", round, sender, burst, err)
				}
			}
		}
		cl.Run(30 * onepipe.Microsecond)
	}
	cl.Run(2 * onepipe.Millisecond)
	return logs
}

// TestBatchingPreservesDeliverySequence is the equivalence property behind
// the adaptive-batching tentpole: frame coalescing is a wire-level
// optimization, so a batched run and an unbatched run of the same seeded
// workload must deliver identical (timestamp, sender, payload) sequences at
// every process. Timestamps are assigned at launch, before the doorbell
// queue, which is what makes this hold exactly. A ten times wider batch
// window moves when frames leave, so the two service classes may interleave
// differently at a receiver, but never what is delivered or its timestamp:
// the sorted logs are identical.
func TestBatchingPreservesDeliverySequence(t *testing.T) {
	batched := collectDeliveries(t, nil)
	plain := collectDeliveries(t, func(c *onepipe.Config) { c.DisableBatching = true })
	wide := collectDeliveries(t, func(c *onepipe.Config) { c.BatchWindow = 10 * onepipe.Microsecond })
	total := 0
	for p := range batched {
		if !slices.Equal(batched[p], plain[p]) {
			t.Fatalf("process %d differs:\n  batched:   %v\n  unbatched: %v", p, batched[p], plain[p])
		}
		slices.Sort(batched[p])
		slices.Sort(wide[p])
		if !slices.Equal(batched[p], wide[p]) {
			t.Fatalf("process %d differs:\n  batched:     %v\n  wide window: %v", p, batched[p], wide[p])
		}
		total += len(batched[p])
	}
	if total == 0 {
		t.Fatal("workload delivered nothing; property vacuous")
	}
}

// TestBatchedRunIsDeterministic pins the weaker property that still must
// hold under loss (where frames share fate and the delivery sets may
// legitimately differ from an unbatched run): the same seed always yields
// the same batched delivery sequences.
func TestBatchedRunIsDeterministic(t *testing.T) {
	lossy := func(c *onepipe.Config) { c.Impair = netsim.UniformLoss(0.01) }
	a := collectDeliveries(t, lossy)
	b := collectDeliveries(t, lossy)
	for p := range a {
		if len(a[p]) != len(b[p]) {
			t.Fatalf("process %d: %d vs %d deliveries across identical runs", p, len(a[p]), len(b[p]))
		}
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("process %d delivery %d differs across identical seeded runs", p, i)
			}
		}
	}
}
