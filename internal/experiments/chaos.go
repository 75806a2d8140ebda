package experiments

import (
	"fmt"

	"onepipe/internal/chaos"
	"onepipe/internal/oracle"
)

// ChaosSweep runs the randomized chaos harness (internal/chaos) as a bench
// figure: each row is one seed — a fresh topology, workload and fault
// schedule — with the run's headline counters and the number of invariant
// violations the checker catalog found (always 0 on a healthy build; a
// nonzero cell prints the failing seed for replay with
// `go test ./internal/chaos -run TestChaosReplay -chaos.seed=N -v`).
func ChaosSweep(sc Scale) *Table {
	t := &Table{
		ID:      "chaos",
		Title:   "Randomized fault sweep: invariants checked per seed (§4.1, §5)",
		Columns: []string{"seed", "hosts", "procs", "mode", "faults", "sends", "deliveries", "recalled", "stuck", "forwarded", "violations"},
	}
	seeds := 8 * sc.Seeds
	bad := 0
	for s := int64(1); s <= int64(seeds); s++ {
		p := chaos.NewPlan(s)
		r := chaos.Run(p)
		vios := oracle.Check(&r.Log)
		bad += len(vios)
		mode := "separate"
		if p.Mode == 1 {
			mode = "unified"
		}
		t.AddRow(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", p.Topo.NumHosts()),
			fmt.Sprintf("%d", p.Topo.NumHosts()*p.ProcsPerHost),
			mode,
			fmt.Sprintf("%d", len(p.Faults)),
			fmt.Sprintf("%d", len(r.Sends)),
			fmt.Sprintf("%d", r.TotalDeliveries()),
			fmt.Sprintf("%d", r.Stats.Recalled),
			fmt.Sprintf("%d", r.Stats.StuckReports),
			fmt.Sprintf("%d", r.ForwardedMsgs),
			fmt.Sprintf("%d", len(vios)),
		)
		if len(vios) > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("seed %d VIOLATES: %s (replay: go test ./internal/chaos -run TestChaosReplay -chaos.seed=%d -v)",
				s, vios[0], s))
		}
	}
	if bad == 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("all %d seeds upheld the full invariant catalog (see internal/oracle)", seeds))
	}
	return t
}
