//go:build !386

package router

import (
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// rawSock is datagramSock through the socket's RawConn: the reader and
// the senders issue recvmsg and sendto with syscall.RawSyscall inside
// RawConn.Read and RawConn.Write callbacks.
//
// The net package's calls enter the kernel through the runtime's
// entersyscall, which wakes the sysmon monitor thread whenever it has gone
// into deep sleep — and between datagrams, with every P idle, it has. At a
// few kpps that is a second thread's wake-up, usleep and sleep per
// datagram. A raw call skips entersyscall; it is safe because the socket
// is non-blocking, so the call returns at once and never holds a P in the
// kernel. EINTR is retried; EAGAIN returns false to the RawConn, whose
// netpoller parks the goroutine until the socket is ready again, so read
// deadlines and closes behave as before.
type rawSock struct {
	rc     syscall.RawConn
	std    stdSock // for peers the socket cannot address
	family uint16  // the socket's own address family
	laddr  net.Addr

	// Reader state, touched only by the reading goroutine: msg points at
	// rsa (the source address) and iov (the read buffer). readFn and
	// writeFn are the RawConn callbacks, bound once so that passing them
	// allocates nothing.
	msg    syscall.Msghdr
	iov    syscall.Iovec
	rsa    syscall.RawSockaddrAny
	rn     int
	rerr   syscall.Errno
	readFn func(fd uintptr) bool
	zones  map[uint32]string

	// Send scratch. RawConn.Write holds the fd's write lock for the whole
	// send, so one mutex over the scratch adds no waiting of its own.
	wmu     sync.Mutex
	wpkt    []byte
	wto     *peerAddr
	werr    syscall.Errno
	writeFn func(fd uintptr) bool
}

// peerAddr is one peer's sockaddr, encoded once for sendto.
type peerAddr struct {
	sa  syscall.RawSockaddrAny
	len uintptr
	to  netip.AddrPort
}

// newSock returns the raw path for conn, or the net package's calls if
// conn's RawConn or local address cannot be had.
func newSock(conn *net.UDPConn) datagramSock {
	std := stdSock{conn}
	rc, err := conn.SyscallConn()
	if err != nil {
		return std
	}
	var sa syscall.Sockaddr
	var serr error
	if err := rc.Control(func(fd uintptr) { sa, serr = syscall.Getsockname(int(fd)) }); err != nil || serr != nil {
		return std
	}
	s := &rawSock{rc: rc, std: std, family: syscall.AF_INET, laddr: conn.LocalAddr()}
	if _, ok := sa.(*syscall.SockaddrInet6); ok {
		s.family = syscall.AF_INET6
	}
	s.msg.Name = (*byte)(unsafe.Pointer(&s.rsa))
	s.msg.Iov = &s.iov
	s.msg.Iovlen = 1
	s.readFn, s.writeFn = s.recvmsg, s.sendto
	return s
}

func (s *rawSock) recv(buf []byte) (int, netip.AddrPort, error) {
	s.iov.Base = unsafe.SliceData(buf)
	s.iov.SetLen(len(buf))
	if err := s.rc.Read(s.readFn); err != nil {
		return 0, netip.AddrPort{}, err
	}
	if s.rerr != 0 {
		return 0, netip.AddrPort{}, &net.OpError{Op: "read", Net: s.laddr.Network(), Source: s.laddr,
			Err: os.NewSyscallError("recvmsg", s.rerr)}
	}
	return s.rn, s.source(), nil
}

// recvmsg is the RawConn.Read callback.
func (s *rawSock) recvmsg(fd uintptr) bool {
	for {
		s.msg.Namelen = syscall.SizeofSockaddrAny
		n, _, e := syscall.RawSyscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&s.msg)), 0)
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		s.rn, s.rerr = int(n), e
		return true
	}
}

// source decodes the last datagram's source address as ReadMsgUDPAddrPort
// would, then unmaps it.
func (s *rawSock) source() netip.AddrPort {
	switch s.rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&s.rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), getPort(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&s.rsa))
		ip := netip.AddrFrom16(sa.Addr)
		if sa.Scope_id != 0 {
			ip = ip.WithZone(s.zoneName(sa.Scope_id))
		}
		return netip.AddrPortFrom(ip.Unmap(), getPort(&sa.Port))
	}
	return netip.AddrPort{}
}

// zoneName names a scope ID as the net package does: the interface's name,
// else the decimal index. The kernel only sets a scope ID on link-local
// sources, and always to the receiving interface's, so a per-socket cache
// stays small.
func (s *rawSock) zoneName(id uint32) string {
	if name, ok := s.zones[id]; ok {
		return name
	}
	name := strconv.FormatUint(uint64(id), 10)
	if ifi, err := net.InterfaceByIndex(int(id)); err == nil {
		name = ifi.Name
	}
	if s.zones == nil {
		s.zones = map[uint32]string{}
	}
	s.zones[id] = name
	return name
}

func (s *rawSock) sender(to netip.AddrPort) func([]byte) error {
	pa, ok := encodePeer(s.family, to)
	if !ok {
		// The net package refuses this peer before any syscall, with the
		// error it has always reported.
		return s.std.sender(to)
	}
	return func(pkt []byte) error { return s.send(pkt, pa) }
}

func (s *rawSock) send(pkt []byte, to *peerAddr) error {
	s.wmu.Lock()
	s.wpkt, s.wto = pkt, to
	err := s.rc.Write(s.writeFn)
	errno := s.werr
	s.wpkt, s.wto = nil, nil
	s.wmu.Unlock()
	if err != nil {
		return err
	}
	if errno != 0 {
		return &net.OpError{Op: "write", Net: s.laddr.Network(), Source: s.laddr,
			Addr: net.UDPAddrFromAddrPort(to.to), Err: os.NewSyscallError("sendto", errno)}
	}
	return nil
}

// sendto is the RawConn.Write callback.
func (s *rawSock) sendto(fd uintptr) bool {
	for {
		_, _, e := syscall.RawSyscall6(syscall.SYS_SENDTO, fd,
			uintptr(unsafe.Pointer(unsafe.SliceData(s.wpkt))), uintptr(len(s.wpkt)), 0,
			uintptr(unsafe.Pointer(&s.wto.sa)), s.wto.len)
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		s.werr = e
		return true
	}
}

// encodePeer encodes to for a socket of the given family, as the net
// package does: an AF_INET socket addresses IPv4 peers only; an AF_INET6
// socket addresses IPv6 peers (zone as scope ID) and IPv4 peers as
// v4-mapped addresses. ok is false for a peer the socket cannot address.
func encodePeer(family uint16, to netip.AddrPort) (pa *peerAddr, ok bool) {
	pa = &peerAddr{to: to}
	ip := to.Addr()
	switch {
	case family == syscall.AF_INET && ip.Is4():
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&pa.sa))
		sa.Family = syscall.AF_INET
		putPort(&sa.Port, to.Port())
		sa.Addr = ip.As4()
		pa.len = syscall.SizeofSockaddrInet4
	case family == syscall.AF_INET6 && ip.IsValid():
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&pa.sa))
		sa.Family = syscall.AF_INET6
		putPort(&sa.Port, to.Port())
		sa.Addr = ip.As16()
		sa.Scope_id = zoneIndex(ip.Zone())
		pa.len = syscall.SizeofSockaddrInet6
	default:
		return nil, false
	}
	return pa, true
}

// zoneIndex resolves a zone to a scope ID: an interface name, else a
// decimal index, else 0.
func zoneIndex(zone string) uint32 {
	if zone == "" {
		return 0
	}
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	n, _ := strconv.ParseUint(zone, 10, 32)
	return uint32(n)
}

// Sockaddr ports are in network byte order.
func getPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func putPort(p *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0], b[1] = byte(port>>8), byte(port)
}
