package onepipe_test

import (
	"fmt"

	"onepipe"
)

// The basic flow: deploy a cluster, send a scattering, poll deliveries in
// total order.
func Example() {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	cluster.Run(50 * onepipe.Microsecond)

	cluster.Process(0).Send([]onepipe.Message{
		{Dst: 1, Data: "debit", Size: 32},
		{Dst: 2, Data: "credit", Size: 32},
	}, onepipe.Reliable())
	cluster.Run(300 * onepipe.Microsecond)

	d1, _ := cluster.Process(1).Poll()
	d2, _ := cluster.Process(2).Poll()
	fmt.Println(d1.Data, d2.Data, "same timestamp:", d1.TS == d2.TS)
	// Output: debit credit same timestamp: true
}

// Scatterings from concurrent senders are delivered in one consistent
// total order at every receiver.
func Example_totalOrder() {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	cluster.Run(50 * onepipe.Microsecond)

	// Two senders race.
	cluster.Process(3).Send([]onepipe.Message{
		{Dst: 1, Data: "from-3", Size: 16}, {Dst: 2, Data: "from-3", Size: 16},
	})
	cluster.Process(5).Send([]onepipe.Message{
		{Dst: 1, Data: "from-5", Size: 16}, {Dst: 2, Data: "from-5", Size: 16},
	})
	cluster.Run(300 * onepipe.Microsecond)

	var order1, order2 []any
	for {
		d, ok := cluster.Process(1).Poll()
		if !ok {
			break
		}
		order1 = append(order1, d.Data)
	}
	for {
		d, ok := cluster.Process(2).Poll()
		if !ok {
			break
		}
		order2 = append(order2, d.Data)
	}
	fmt.Println("receiver 1 and 2 agree:", fmt.Sprint(order1) == fmt.Sprint(order2))
	// Output: receiver 1 and 2 agree: true
}

// The send-failure callback reports best-effort messages that were lost
// (Table 1's onepipe_send_fail_callback).
func Example_sendFailure() {
	cfg := onepipe.Defaults()
	cfg.WithController = true
	cluster := onepipe.NewCluster(cfg)
	cluster.Run(100 * onepipe.Microsecond)

	fails := 0
	cluster.Process(0).OnSendFail(func(onepipe.SendFailure) { fails++ })
	cluster.KillHost(1) // destination dies
	cluster.Process(0).Send([]onepipe.Message{
		{Dst: 1, Data: "doomed", Size: 16},
		{Dst: 2, Data: "recalled with it", Size: 16},
	}, onepipe.Reliable())
	cluster.Run(5 * onepipe.Millisecond)
	fmt.Println("failures reported:", fails)
	// Output: failures reported: 2
}
