package main

import (
	"onepipe"
	"onepipe/internal/sim"
)

// orderChecker is the per-run oracle for 1Pipe's delivery contract under
// DeliverSeparate: at every receiver, each class (best-effort, reliable) is
// delivered in strictly increasing (TS, Src) order. A repeated key is a
// duplicate delivery — one sender never reuses a timestamp toward one
// receiver — and a smaller key is a misordering.
type orderChecker struct {
	last       [][2]orderKey // per receiver, per class
	violations uint64
	duplicates uint64
	perClass   [2]uint64 // deliveries observed: best-effort, reliable
	// digest folds every delivery in callback order (FNV-1a); equal digests
	// mean the same deliveries happened in the same order.
	digest uint64
}

type orderKey struct {
	ts  sim.Time
	src onepipe.ProcID
	set bool
}

func newOrderChecker(receivers int) *orderChecker {
	return &orderChecker{last: make([][2]orderKey, receivers), digest: 14695981039346656037}
}

func (c *orderChecker) observe(dst int, ts sim.Time, src onepipe.ProcID, reliable bool) {
	class := 0
	if reliable {
		class = 1
	}
	k := &c.last[dst][class]
	if k.set {
		switch {
		case ts == k.ts && src == k.src:
			c.duplicates++
		case ts < k.ts || (ts == k.ts && src < k.src):
			c.violations++
		}
	}
	*k = orderKey{ts: ts, src: src, set: true}
	c.perClass[class]++
	const prime = 1099511628211
	c.digest = (c.digest ^ uint64(dst)) * prime
	c.digest = (c.digest ^ uint64(ts)) * prime
	c.digest = (c.digest ^ uint64(src)<<1 ^ uint64(class)) * prime
}
