package udpnet

import (
	"net/netip"
	"time"

	"onepipe/internal/sim"
)

// memTransport is the in-memory twin of udpTransport: every endpoint hangs
// off one sim.Engine, and time moves only while the caller steps it (wait,
// or eng.RunFor). A run is socket-free, deterministic and replayable from
// its seed. Like a socket, it copies each datagram on send, never calls a
// receiver inline (hosts send with their lock held), and keeps no FIFO
// order: a datagram the switch holds back can be overtaken.
type memTransport struct {
	eng *sim.Engine
	eps []*memEndpoint // endpoint i has port i+1
}

// linkDelay is the one-way endpoint-to-endpoint latency: the simulator's
// host-link propagation plus NIC and stack processing.
const linkDelay = 500 * sim.Nanosecond

func newMemTransport(seed int64) *memTransport { return &memTransport{eng: sim.NewEngine(seed)} }

func (m *memTransport) now() sim.Time { return m.eng.Now() }

func (m *memTransport) after(d sim.Time, fn func()) { m.eng.After(d, fn) }

// wait steps the engine until cond holds; timeout is virtual time.
func (m *memTransport) wait(timeout time.Duration, cond func() bool) bool {
	end := m.eng.Now() + sim.Time(timeout)
	for !cond() {
		if timeout > 0 && m.eng.Now() >= end || !m.eng.Step() {
			return false
		}
	}
	return true
}

type memEndpoint struct {
	m      *memTransport
	ap     netip.AddrPort
	recv   func(netip.AddrPort, []byte)
	closed bool
}

func (m *memTransport) listen(recv func(netip.AddrPort, []byte)) (endpoint, error) {
	e := &memEndpoint{m: m, recv: recv,
		ap: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(len(m.eps)+1))}
	m.eps = append(m.eps, e)
	return e, nil
}

func (e *memEndpoint) addr() netip.AddrPort { return e.ap }

func (e *memEndpoint) send(b []byte, to netip.AddrPort) {
	i := int(to.Port()) - 1
	if e.closed || i < 0 || i >= len(e.m.eps) {
		return
	}
	dst, from, cp := e.m.eps[i], e.ap, append([]byte(nil), b...)
	e.m.eng.After(linkDelay, func() {
		if !dst.closed {
			dst.recv(from, cp)
		}
	})
}

func (e *memEndpoint) close() { e.closed = true }
