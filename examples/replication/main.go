// Replication: §2.2.2's 1-RTT replication. A client scatters log entries
// directly to three replicas with best-effort 1Pipe; the network
// serializes concurrent clients, per-replica checksums certify agreement
// in the acknowledgment itself, and packet loss is repaired by
// sequence-gap-driven retransmission — all without a leader.
package main

import (
	"fmt"

	"onepipe"
	"onepipe/internal/netsim"
	"onepipe/internal/replication"
)

func main() {
	cfg := onepipe.Defaults()
	const loss = 0.002 // a slightly lossy fabric, to show recovery
	cfg.Impair = netsim.UniformLoss(loss)
	cfg.Seed = 7
	cluster := onepipe.NewCluster(cfg)

	replicas := []onepipe.ProcID{5, 6, 7}
	group := replication.NewGroup(cluster.Core(), replicas, replication.DefaultConfig())

	// Two clients append concurrently.
	acked := 0
	for _, client := range []onepipe.ProcID{0, 1} {
		c := group.Client(client)
		client := client
		for i := 0; i < 25; i++ {
			i := i
			at := cluster.Now() + onepipe.Timestamp(50+i*4)*onepipe.Microsecond
			cluster.Network().Eng.At(at, func() {
				c.Append(fmt.Sprintf("c%d-e%d", client, i), 64, func(ok bool) {
					if ok {
						acked++
					}
				})
			})
		}
	}
	cluster.Run(20 * onepipe.Millisecond)

	fmt.Printf("acknowledged %d/50 appends (latency mean %.1fus, %d retransmits under %.1f%% loss)\n",
		acked, group.Stats.Latency.Mean(), group.Stats.Retransmits, loss*100)

	logs := make(map[netsim.ProcID][]replication.Entry)
	for _, r := range replicas {
		logs[r] = group.Log(r)
	}
	fmt.Printf("replica log lengths: %d / %d / %d\n",
		len(logs[5]), len(logs[6]), len(logs[7]))
	fmt.Printf("per-client sequences consistent on all replicas: %v\n", group.ClientConsistent())

	fmt.Println("\nfirst 8 entries on replica 5 (identical interleaving on the others):")
	for i, e := range logs[5] {
		if i == 8 {
			break
		}
		fmt.Printf("  ts=%-12v client=%d seq=%d %v\n", e.TS, e.Client, e.Seq, e.Data)
	}
}
