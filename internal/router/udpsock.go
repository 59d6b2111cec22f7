package router

import (
	"net"
	"net/netip"
)

// datagramSock is the datagram I/O under a UDPServer. newSock picks the
// platform's implementation: on Linux raw non-blocking recvmsg/sendto
// through the socket's RawConn (udpsock_linux.go), elsewhere stdSock.
type datagramSock interface {
	// recv reads one datagram into buf and returns its length and its
	// unmapped source address. Only the reading goroutine calls it.
	recv(buf []byte) (int, netip.AddrPort, error)
	// sender returns the function that sends one datagram to the
	// (unmapped) peer to; it may be called from any goroutine.
	sender(to netip.AddrPort) func(pkt []byte) error
}

// stdSock is datagramSock over the net package's own calls.
type stdSock struct{ conn *net.UDPConn }

func (s stdSock) recv(buf []byte) (int, netip.AddrPort, error) {
	n, _, _, from, err := s.conn.ReadMsgUDPAddrPort(buf, nil)
	return n, unmap(from), err
}

func (s stdSock) sender(to netip.AddrPort) func([]byte) error {
	return func(pkt []byte) error {
		_, err := s.conn.WriteToUDPAddrPort(pkt, to)
		return err
	}
}
