package router

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Socket dataplane sizing. A datagram costs the kernel its truesize, not
// its length: rcvTruesize is a conservative per-datagram charge used to
// turn the ingress queue depths into a socket receive buffer request.
const (
	maxDatagram = 65535
	rcvTruesize = 2048
)

// UDPServer is a router's socket dataplane over one UDP socket: each peer
// address is a router port, datagrams are packets, and the socket reader
// feeds the guarded ingress.
//
// With Workers ≤ 1 the reading goroutine is the forwarder. It submits each
// datagram straight from its read buffer and pumps the ingress before the
// next read, so every packet still crosses classification, admission, the
// control-first rings, the panic quarantine and the burst sampling plan,
// but with no goroutine hand-off and no copy: the buffer is forwarded and
// sent before it is reused (anything that keeps packet bytes — the content
// store, quarantine, trace ring — copies them). Stalls are absorbed by the
// kernel's receive buffer, which ServeUDP sizes from the queue depths.
//
// With Workers > 1 the reader copies each datagram and submits it to the
// flow-pinned forwarder goroutines, as ServeGuarded does.
type UDPServer struct {
	conn   *net.UDPConn
	sock   datagramSock
	in     *Ingress
	inline bool
	portOf map[netip.AddrPort]int
	rcvBuf int

	closing   atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
}

// ServeUDP attaches one router port per peer (in order) whose Send writes
// to that peer over conn, starts the guarded ingress configured by cfg, and
// starts reading conn. A datagram's ingress port is its sender's port;
// datagrams from unknown senders arrive on port 0. Addresses are compared
// unmapped, so IPv4 peers match on a dual-stack socket. On Linux the
// datagrams are read and sent with raw non-blocking syscalls through conn's
// RawConn (udpsock_linux.go), which keeps the runtime's syscall entry off
// the per-datagram path. Stop it with Close; conn stays open and remains
// the caller's.
func (r *Router) ServeUDP(conn *net.UDPConn, peers []netip.AddrPort, cfg ServeConfig) *UDPServer {
	s := &UDPServer{
		conn:   conn,
		sock:   newSock(conn),
		inline: cfg.Workers <= 1,
		portOf: make(map[netip.AddrPort]int, len(peers)),
		done:   make(chan struct{}),
	}
	for _, p := range peers {
		to := unmap(p)
		send := s.sock.sender(to)
		idx := r.AttachPort(PortFunc(func(pkt []byte) {
			if err := send(pkt); err != nil {
				s.socketError(err)
			}
		}))
		s.portOf[to] = idx
	}
	if s.inline {
		cfg.Workers = 0
	}
	s.in = r.serve(cfg, s.inline)
	// The kernel doubles the request for bookkeeping and caps it at
	// rmem_max; report what it granted.
	_ = conn.SetReadBuffer((s.in.cfg.HighDepth + s.in.cfg.LowDepth) * rcvTruesize)
	s.rcvBuf, _ = rcvBufOf(conn)
	go s.readLoop()
	return s
}

func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// readLoop is the dataplane: read, then Submit, then — when the reader is
// the forwarder — Pump.
func (s *UDPServer) readLoop() {
	defer close(s.done)
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := s.sock.recv(buf)
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.socketError(err)
			continue
		}
		inPort := s.portOf[from] // unknown senders map to port 0
		pkt := buf[:n]
		if !s.inline {
			// Submit transfers ownership to a forwarder goroutine while
			// this buffer is reused, so hand over a copy.
			pkt = append([]byte(nil), pkt...)
		}
		s.in.Submit(pkt, inPort)
		if s.inline {
			s.in.Pump()
		}
	}
}

func (s *UDPServer) socketError(err error) {
	if f := s.in.cfg.OnSocketError; f != nil {
		f(err)
	}
}

// Inject submits a packet that did not arrive on the socket (a cold-tier
// re-inject, say) from any goroutine, transferring ownership of pkt. When
// the reader is the forwarder, Inject pumps the ingress itself, serialized
// with the reader, so the packet never waits for the next datagram. It
// must not be called from inside the pipeline (a Port's Send or a
// LocalDelivery callback). It reports whether the ingress accepted pkt.
func (s *UDPServer) Inject(pkt []byte, inPort int) bool {
	ok := s.in.Submit(pkt, inPort)
	if ok && s.inline {
		s.in.Pump()
	}
	return ok
}

// Ingress returns the guarded ingress the socket feeds.
func (s *UDPServer) Ingress() *Ingress { return s.in }

// ReadBuffer is the socket receive buffer size the kernel granted, in
// bytes (0 if the platform cannot report it).
func (s *UDPServer) ReadBuffer() int { return s.rcvBuf }

// Close stops the reader (by expiring conn's read deadline; conn itself
// stays open), then closes the ingress, draining what it still holds.
// Safe to call more than once.
func (s *UDPServer) Close() {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		_ = s.conn.SetReadDeadline(time.Unix(1, 0))
		<-s.done
		s.in.Close()
	})
}

// Wait blocks until the reader stops: after Close, or once conn is closed.
func (s *UDPServer) Wait() { <-s.done }
