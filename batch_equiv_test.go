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
// with extra appended to every send's options, and returns every process's
// delivery log as (ts, src, payload) strings and the cluster.
func collectDeliveries(t *testing.T, mut func(*onepipe.Config), extra ...onepipe.SendOption) ([][]string, *onepipe.Cluster) {
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
				opts := slices.Clone(extra)
				// A sender's bursts in one round share a service class:
				// a fragment of the other class would end the frame.
				if (sender/2+round)%2 == 1 {
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
	return logs, cl
}

// TestBatchingPreservesDeliverySequence is the equivalence property behind
// the adaptive-batching tentpole: frame coalescing is a wire-level
// optimization, so a batched run and an unbatched run of the same seeded
// workload must deliver identical (timestamp, sender, payload) sequences at
// every process. The unbatched run sends every scattering with the
// Unbatched option, so it emits no multi-message frame. Timestamps are
// assigned at launch, before the doorbell queue, which is what makes this
// hold exactly. A ten times wider batch
// window moves when frames leave, so the two service classes may interleave
// differently at a receiver, but never what is delivered or its timestamp:
// the sorted logs are identical.
func TestBatchingPreservesDeliverySequence(t *testing.T) {
	batched, batchedCl := collectDeliveries(t, nil)
	plain, plainCl := collectDeliveries(t, nil, onepipe.Unbatched())
	wide, _ := collectDeliveries(t, func(c *onepipe.Config) { c.BatchWindow = 10 * onepipe.Microsecond })
	if n := batchedCl.Core().TotalStats().FramesSent; n == 0 {
		t.Fatal("batched run sent no multi-message frame; property vacuous")
	}
	if n := plainCl.Core().TotalStats().FramesSent; n != 0 {
		t.Fatalf("unbatched run sent %d multi-message frames, want 0", n)
	}
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
	a, _ := collectDeliveries(t, lossy)
	b, _ := collectDeliveries(t, lossy)
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
