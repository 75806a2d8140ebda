package udpnet

import (
	"net"
	"net/netip"
	"time"

	"onepipe/internal/sim"
)

// transport carries the fabric's datagrams and keeps its clock. Hosts and
// the switch reach sockets, time and timers only through it, so one adapter
// runs in real time over UDP (udpTransport) and in virtual time on a
// sim.Engine (memTransport).
type transport interface {
	// listen opens an endpoint; recv is called with every datagram it
	// receives, whose bytes are valid only during the call.
	listen(recv func(from netip.AddrPort, b []byte)) (endpoint, error)
	// now is the fabric clock: nanoseconds since the transport's epoch.
	now() sim.Time
	// after calls fn once d has passed, never inline.
	after(d sim.Time, fn func())
	// wait returns true once cond holds, or false if timeout (zero: none)
	// passes first. cond is checked again after every datagram and timer.
	wait(timeout time.Duration, cond func() bool) bool
}

// endpoint is one bound datagram socket.
type endpoint interface {
	addr() netip.AddrPort
	// send transmits a copy of b to the endpoint at to. Errors surface as
	// loss, which the protocol already tolerates.
	send(b []byte, to netip.AddrPort)
	// close releases the endpoint; no recv call runs after it returns.
	close()
}

// udpTransport is the deployed transport: loopback UDP sockets, each read
// by its own goroutine, the wall clock since the fabric's epoch, and the
// runtime's timers.
type udpTransport struct {
	epoch time.Time
	// wake is signalled after every datagram and timer, so wait blocks
	// instead of polling.
	wake chan struct{}
}

func newUDPTransport() *udpTransport {
	return &udpTransport{epoch: time.Now(), wake: make(chan struct{}, 1)}
}

func (t *udpTransport) now() sim.Time { return sim.Time(time.Since(t.epoch)) }

func (t *udpTransport) after(d sim.Time, fn func()) {
	time.AfterFunc(time.Duration(d), func() {
		fn()
		t.poke()
	})
}

func (t *udpTransport) poke() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

func (t *udpTransport) wait(timeout time.Duration, cond func() bool) bool {
	var expired <-chan time.Time
	if timeout > 0 {
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		expired = deadline.C
	}
	for !cond() {
		select {
		case <-t.wake:
		case <-expired:
			return cond()
		}
	}
	return true
}

type udpEndpoint struct {
	conn *net.UDPConn
	done chan struct{} // closed when the read goroutine exits
}

func (t *udpTransport) listen(recv func(netip.AddrPort, []byte)) (endpoint, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	e := &udpEndpoint{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		buf := make([]byte, 64*1024)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // socket closed
			}
			recv(from, buf[:n])
			t.poke()
		}
	}()
	return e, nil
}

// addr is the bound address as the udp4 sockets read and write it: plain
// IPv4, where the bound net.IP converts to ::ffff:127.0.0.1.
func (e *udpEndpoint) addr() netip.AddrPort {
	a := e.conn.LocalAddr().(*net.UDPAddr).AddrPort()
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

func (e *udpEndpoint) send(b []byte, to netip.AddrPort) { e.conn.WriteToUDPAddrPort(b, to) }

func (e *udpEndpoint) close() {
	e.conn.Close()
	<-e.done
}
