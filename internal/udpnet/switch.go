package udpnet

import (
	"bytes"
	"net"
	"sync"
	"time"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/starswitch"
	"onepipe/internal/wire"
)

// Switch is the software switch of the UDP fabric: one UDP socket in front
// of the shared switch core (internal/starswitch), which keeps a barrier
// register pair per registered host uplink, stamps forwarded packets with
// the aggregated minimum (eq. 4.1), decides beacon relays, and optionally
// injects loss. This type owns only the socket, the address table and the
// lock that serialises the core.
type Switch struct {
	cfg   Config
	conn  *net.UDPConn
	epoch time.Time

	mu      sync.Mutex
	core    *starswitch.Core     // port id = host id
	addrs   map[int]*net.UDPAddr // host id -> address
	closed  bool
	stopped chan struct{}
	wg      sync.WaitGroup
	encBuf  []byte // reusable forward-path encode buffer; guarded by mu
	// regNotify is signalled (non-blocking, capacity 1) whenever a NEW host
	// registers, so Start can wait on registration instead of polling.
	regNotify chan struct{}
}

func newSwitch(cfg Config, epoch time.Time) (*Switch, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Switch{
		cfg: cfg, conn: conn, epoch: epoch,
		core:      starswitch.New(cfg.Impair, seed),
		addrs:     make(map[int]*net.UDPAddr),
		stopped:   make(chan struct{}),
		regNotify: make(chan struct{}, 1),
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.beaconLoop()
	return s, nil
}

// Addr returns the switch's UDP address.
func (s *Switch) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

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
func (s *Switch) Stats() starswitch.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Stats()
}

func (s *Switch) registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

func (s *Switch) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	// One packet struct serves every datagram: handle() forwards or drops
	// synchronously and never retains it.
	var pkt netsim.Packet
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		payload, derr := wire.DecodeInto(&pkt, buf[:n], sim.Time(time.Since(s.epoch)))
		if derr != nil {
			continue
		}
		s.handle(&pkt, payload, from)
	}
}

func (s *Switch) handle(pkt *netsim.Packet, payload []byte, from *net.UDPAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	srcHost := int(pkt.Src) / s.cfg.ProcsPerHost

	// Registration heartbeat: admit the uplink (the core seeds a new port's
	// registers at the current aggregate; departed hosts do not rejoin under
	// the same id) and learn or refresh its address.
	if pkt.Kind == netsim.KindCtrl && bytes.Equal(payload, registerPayload) {
		fresh := s.core.Admit(srcHost)
		if s.core.Drained(srcHost) {
			return
		}
		s.addrs[srcHost] = from
		if fresh {
			select {
			case s.regNotify <- struct{}{}:
			default:
			}
		}
		return
	}

	dstHost := int(pkt.Dst) / s.cfg.ProcsPerHost
	forward, extra := s.core.Ingress(srcHost, dstHost, pkt, sim.Time(time.Since(s.epoch)))
	if !forward {
		return
	}
	// The core restamped the barrier fields (the chip path: rewrite two
	// header fields, forward the rest untouched). The encode buffer is
	// owned by the switch and reused under the lock.
	dst := s.addrs[dstHost]
	s.encBuf = wire.AppendEncode(s.encBuf[:0], pkt, payload)
	if extra > 0 {
		// The encode buffer is reused on the next handle(); a delayed send
		// needs its own copy of the datagram.
		held := append([]byte(nil), s.encBuf...)
		time.AfterFunc(time.Duration(extra), func() { s.conn.WriteToUDP(held, dst) })
		return
	}
	s.conn.WriteToUDP(s.encBuf, dst)
}

func (s *Switch) beaconLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.BeaconInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			var b []byte // one encoding serves every downlink of this tick
			s.core.Relay(func(h int, be, c sim.Time) {
				if b == nil {
					b = wire.Encode(&netsim.Packet{Kind: netsim.KindBeacon, BarrierBE: be, BarrierC: c}, nil)
				}
				s.conn.WriteToUDP(b, s.addrs[h])
			})
			s.mu.Unlock()
		case <-s.stopped:
			return
		}
	}
}

func (s *Switch) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stopped)
	}
	s.mu.Unlock()
	s.conn.Close()
	s.wg.Wait()
}
