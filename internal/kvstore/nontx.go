package kvstore

import (
	"onepipe/internal/netsim"
)

// issueNonTX dispatches operations as plain sharded RPCs with no ordering
// or atomicity — the hardware-limit upper bound of Figure 14.
func (n *node) issueNonTX(t *txn) {
	buckets := n.st.bucketOps(t.ops)
	t.pending = len(buckets)
	for _, b := range buckets {
		size := 16 * len(b.ops)
		for _, op := range b.ops {
			size += op.Value
		}
		n.proc.SendRaw(b.owner, nontxReq{t: t, ops: b.ops}, size)
	}
	t.retry.Reset(retryTimeout)
}

// onNonTXReq applies the operations immediately (no concurrency control).
func (n *node) onNonTXReq(src netsim.ProcID, m nontxReq) {
	n.serve(len(m.ops), func() {
		for _, op := range m.ops {
			n.apply(op)
		}
		n.proc.SendRaw(src, kvReply{t: m.t, n: len(m.ops)}, 8)
	})
}
