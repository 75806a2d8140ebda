package core

import "onepipe/internal/netsim"

// scatPool is a simulated fabric's free lists of scatterings, kept in its
// netsim.Pool and used by the goroutine that drives its engine. There are
// two classes: the inline shape (one message, one packet) and wide
// scatterings, which keep their slabs — an inline send never takes a wide
// one, so it never carries slabs it does not use. A list holds at most
// scatSlack more than its class has live, so a start-up burst is handed
// back to the collector as the load settles. A nil *scatPool (a host off a
// simulated fabric) allocates.
type scatPool struct {
	free [2][]*scattering
	// live counts, per class, the scatterings taken and neither released
	// nor dropped (a stopped host's unfinished ones stay counted).
	live [2]int
}

// scatPoolOf returns the scattering free lists kept in fp, making them on
// first use; nil for a nil fp.
func scatPoolOf(fp *netsim.Pool) *scatPool {
	slot := fp.Ext()
	if slot == nil {
		return nil
	}
	sp, _ := (*slot).(*scatPool)
	if sp == nil {
		sp = new(scatPool)
		*slot = sp
	}
	return sp
}

// scatClass is the free-list class of a scattering of total packets: 0 for
// the inline shape, 1 for one with slabs.
func scatClass(total int) int {
	if total > scatInline {
		return 1
	}
	return 0
}

// get pops a scattering of class k for the caller to re-initialise, or
// makes one.
func (sp *scatPool) get(k int) *scattering {
	if sp == nil {
		return new(scattering)
	}
	sp.live[k]++
	l := sp.free[k]
	n := len(l) - 1
	if n < 0 {
		return new(scattering)
	}
	s := l[n]
	l[n] = nil
	sp.free[k] = l[:n]
	return s
}

// put takes back a released scattering, if its list has room.
func (sp *scatPool) put(s *scattering) {
	k := scatClass(s.totalPkts)
	sp.live[k]--
	if len(sp.free[k]) < sp.live[k]+scatSlack {
		sp.free[k] = append(sp.free[k], s)
	}
}

// drop counts s out of its class's live scatterings without taking it
// back: a scattering that is aborted, refused or sent fire-and-forget ends
// with the collector.
func (sp *scatPool) drop(s *scattering) {
	if sp != nil {
		sp.live[scatClass(s.totalPkts)]--
	}
}

// scatSlack is how many more scatterings than are live a free list keeps.
// A bound of the live count alone never recycles the one scattering of a
// single round, and on a small fabric the live count swings by tens between
// rounds: 64 KV clients on 8 hosts swing between 2 and 35, and a list held
// to one more than live allocated 0.8 scatterings per request there
// (TestServeRequestAllocs).
const scatSlack = 32

const (
	releaseTwice = "core: scattering released twice"
	useFreed     = "core: use of a released scattering"
)

// releaseScattering hands a finished scattering back to the fabric. It is
// called at exactly two points: a best-effort scattering at its last ACK,
// once its send-fail timer is stopped, and a reliable one when
// reapOutstanding pops it after commit, unless it was aborted. A frame is
// ACKed as a whole, so by then no send queue, ring or fnext chain holds any
// of its packets; outstanding and the fail timer were the last references.
// Its messages are cleared, so their Data is not kept reachable, and their
// array stays with it for the next scattering of its class. Every other
// scattering — aborted, timed out, recalled, parked or never launched — is
// left to the collector.
func (h *Host) releaseScattering(s *scattering) {
	if s.free {
		panic(releaseTwice)
	}
	s.free = true
	if h.scats == nil {
		return
	}
	s.failTimer.release()
	clear(s.pkts)
	clear(s.msgs)
	h.scats.put(s)
}

// abandon aborts s for good: it will never be released, so it stops
// counting as live on its free list.
func (h *Host) abandon(s *scattering) {
	s.aborted = true
	h.scats.drop(s)
}
