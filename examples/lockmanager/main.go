// Lockmanager: distributed mutual exclusion via state machine replication
// over reliable 1Pipe (§2.2.2). Every lock/unlock command is one
// scattering to three replicas; all replicas apply the commands in the
// same total order, so they compute identical grant sequences — Lamport's
// classic mutual-exclusion guarantee ("the resource is granted in the
// order the requests are made") with no leader and no per-command
// consensus round.
package main

import (
	"fmt"

	"onepipe"
)

func main() {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	replicas := []onepipe.ProcID{5, 6, 7}
	lms, submit := replicate(cluster, replicas)
	eng := cluster.Network().Eng
	cluster.Run(50 * onepipe.Microsecond)

	// Four clients race for the same resource; each holds it for 15us.
	lms[0].OnGrant = func(ev GrantEvent) {
		owner := ev.Owner
		fmt.Printf("granted %-8s to client %d at ts=%v\n", ev.Resource, owner, ev.TS)
		eng.After(15*onepipe.Microsecond, func() {
			submit(owner, LockCmd{Resource: ev.Resource, Owner: owner, Release: true})
		})
	}
	for _, client := range []onepipe.ProcID{0, 1, 2, 3} {
		client := client
		eng.At(eng.Now()+onepipe.Timestamp(60+client)*onepipe.Microsecond, func() {
			submit(client, LockCmd{Resource: "database", Owner: client})
		})
	}
	cluster.Run(2 * onepipe.Millisecond)

	// Verify all replicas computed the identical grant sequence.
	ref := lms[0].Grants
	same := true
	for _, lm := range lms[1:] {
		g := lm.Grants
		if len(g) != len(ref) {
			same = false
			break
		}
		for i := range g {
			if g[i].Owner != ref[i].Owner {
				same = false
			}
		}
	}
	fmt.Printf("\n%d grants; all %d replicas agree on the grant order: %v\n",
		len(ref), len(replicas), same)
}
