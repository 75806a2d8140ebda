package udpnet

import (
	"bytes"
	"net/netip"
	"sync"
	"time"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
	"onepipe/internal/wire"
)

// Switch is the software switch of the fabric: one endpoint in front of the
// shared switch core (internal/starswitch), which keeps a barrier register
// pair per registered host uplink, stamps forwarded packets with the
// aggregated minimum (eq. 4.1), decides beacon relays, and optionally
// injects loss. This type owns only the endpoint, the address table and the
// lock that serialises the core.
type Switch struct {
	cfg Config
	tr  transport

	mu    sync.Mutex
	ep    endpoint
	core  *starswitch.Core       // port id = host id
	addrs map[int]netip.AddrPort // host id -> address, pinned at its first hello
	// joining is the host id Join is admitting, or -1: only its hello may
	// pin an address.
	joining int
	// forged counts datagrams claiming an admitted host from another
	// address and hellos for a host nobody is joining; Stats reports them
	// as dropped.
	forged uint64
	closed bool
	pkt    netsim.Packet // decode target; handle forwards or drops it synchronously
	encBuf []byte        // reusable forward-path encode buffer
}

func newSwitch(cfg Config, tr transport) (*Switch, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Switch{cfg: cfg, tr: tr, core: starswitch.New(cfg.Impair, seed),
		addrs: make(map[int]netip.AddrPort), joining: -1}
	// A datagram's handle waits for the lock until the endpoint is set.
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, err := tr.listen(s.handle)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	tr.after(sim.Time(cfg.BeaconInterval), s.relay)
	return s, nil
}

// Addr returns the switch's address.
func (s *Switch) Addr() netip.AddrPort { return s.ep.addr() }

// SetBlackhole installs or clears a grey failure on one host: the switch
// keeps consuming its beacons (control plane intact, so the global barrier
// keeps advancing) but drops every data-plane packet to or from it. This is
// the partition shape the UDP fabric can survive without a controller —
// a full cut would freeze the barrier aggregation at the parked register,
// which is exactly the §5.2 failure-handling territory the simulator's
// chaos harness covers.
func (s *Switch) SetBlackhole(host int, blocked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.SetBlackhole(host, blocked)
}

// SetDrained removes a gracefully departed host from aggregation and
// beacon relays for good.
func (s *Switch) SetDrained(host int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.Drain(host)
}

// Drained reports whether a host has gracefully left.
func (s *Switch) Drained(host int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Drained(host)
}

// Stats returns the switch's data-plane and beacon-suppression counters.
// Dropped includes every datagram that claimed a registered host from an
// address other than the one it registered from, and every hello for a
// host nobody is joining.
func (s *Switch) Stats() starswitch.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.core.Stats()
	st.Dropped += s.forged
	return st
}

// expect lets the next hello for host pin its address (-1: none).
func (s *Switch) expect(host int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.joining = host
}

// pinned reports whether host has registered its address.
func (s *Switch) pinned(host int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.addrs[host]
	return ok
}

func (s *Switch) handle(from netip.AddrPort, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	pkt := &s.pkt
	payload, err := wire.DecodeInto(pkt, b, s.tr.now())
	if err != nil {
		return
	}
	srcHost := int(pkt.Src) / s.cfg.ProcsPerHost
	// A host's address is pinned at its first hello: a datagram claiming
	// the host from anywhere else, a hello included, is forged.
	if pinned, ok := s.addrs[srcHost]; ok && pinned != from {
		s.forged++
		return
	}

	// Registration hello: admit the uplink (the core seeds a new port's
	// registers at the current aggregate; departed hosts do not rejoin under
	// the same id) and pin its address. Only the host Join is admitting may
	// register: a stranger's hello would seed a port nothing ever raises
	// and freeze both planes.
	if pkt.Kind == netsim.KindCtrl && bytes.Equal(payload, registerPayload) {
		if _, ok := s.addrs[srcHost]; !ok {
			if srcHost < 0 || srcHost != s.joining {
				s.forged++
				return
			}
			s.joining = -1
		}
		s.core.Admit(srcHost)
		s.addrs[srcHost] = from
		return
	}

	dstHost := int(pkt.Dst) / s.cfg.ProcsPerHost
	forward, extra := s.core.Ingress(srcHost, dstHost, pkt, s.tr.now())
	if !forward {
		return
	}
	// The core restamped the barrier fields (the chip path: rewrite two
	// header fields, forward the rest untouched). The encode buffer is
	// owned by the switch and reused under the lock.
	dst := s.addrs[dstHost]
	s.encBuf = wire.AppendEncode(s.encBuf[:0], pkt, payload)
	if extra > 0 {
		// Each held datagram waits on its own timer, so a later one may
		// overtake it; it needs its own copy of the bytes.
		held, ep := append([]byte(nil), s.encBuf...), s.ep
		s.tr.after(extra, func() { ep.send(held, dst) })
		return
	}
	s.ep.send(s.encBuf, dst)
}

// relay is the beacon tick: push the aggregate down every downlink that has
// not carried it yet, then re-arm.
func (s *Switch) relay() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	var b []byte // one encoding serves every downlink of this tick
	s.core.Relay(func(h int, be, c sim.Time) {
		if b == nil {
			b = wire.Encode(&netsim.Packet{Kind: netsim.KindBeacon, BarrierBE: be, BarrierC: c}, nil)
		}
		s.ep.send(b, s.addrs[h])
	})
	s.tr.after(sim.Time(s.cfg.BeaconInterval), s.relay)
}

func (s *Switch) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ep.close()
}
