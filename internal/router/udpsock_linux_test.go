//go:build !386

package router

import (
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"testing"
	"unsafe"
)

// loopbackIface is the loopback interface, whose index and name pin the
// scope-ID ↔ zone mapping; the zone cases skip without one.
func loopbackIface(t *testing.T) *net.Interface {
	t.Helper()
	ifs, err := net.Interfaces()
	if err != nil {
		t.Skipf("no interface list: %v", err)
	}
	for i := range ifs {
		if ifs[i].Flags&net.FlagLoopback != 0 {
			return &ifs[i]
		}
	}
	t.Skip("no loopback interface")
	return nil
}

func rawInet4(ip [4]byte, port uint16) syscall.RawSockaddrAny {
	var rsa syscall.RawSockaddrAny
	sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&rsa))
	sa.Family = syscall.AF_INET
	putPort(&sa.Port, port)
	sa.Addr = ip
	return rsa
}

func rawInet6(ip string, scope uint32, port uint16) syscall.RawSockaddrAny {
	var rsa syscall.RawSockaddrAny
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&rsa))
	sa.Family = syscall.AF_INET6
	putPort(&sa.Port, port)
	sa.Addr = netip.MustParseAddr(ip).As16()
	sa.Scope_id = scope
	return rsa
}

// TestSockaddrDecode: the raw reader's source address is exactly what
// ReadMsgUDPAddrPort yields after unmap — the address family's address and
// port, the interface name (else the decimal index) as the zone of a
// scoped source, and IPv4 for a v4-mapped source.
func TestSockaddrDecode(t *testing.T) {
	lo := loopbackIface(t)
	const unknownScope = 4000000
	for _, c := range []struct {
		name string
		rsa  syscall.RawSockaddrAny
		want netip.AddrPort
	}{
		{"ipv4", rawInet4([4]byte{192, 0, 2, 7}, 7001), netip.MustParseAddrPort("192.0.2.7:7001")},
		{"v4-mapped", rawInet6("::ffff:192.0.2.7", 0, 7001), netip.MustParseAddrPort("192.0.2.7:7001")},
		{"ipv6-global", rawInet6("2001:db8::7", 0, 0xBEEF), netip.MustParseAddrPort("[2001:db8::7]:48879")},
		{"ipv6-link-local", rawInet6("fe80::7", uint32(lo.Index), 7001),
			netip.AddrPortFrom(netip.MustParseAddr("fe80::7%"+lo.Name), 7001)},
		{"ipv6-unknown-scope", rawInet6("fe80::7", unknownScope, 7001),
			netip.AddrPortFrom(netip.MustParseAddr("fe80::7%"+strconv.Itoa(unknownScope)), 7001)},
		{"unspec", syscall.RawSockaddrAny{}, netip.AddrPort{}},
	} {
		s := &rawSock{rsa: c.rsa}
		if got := s.source(); got != c.want {
			t.Errorf("%s: decoded %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSockaddrEncode: a peer is encoded for the socket's own family, with
// the port in network byte order, and decodes back to itself; a peer the
// family cannot address is refused.
func TestSockaddrEncode(t *testing.T) {
	lo := loopbackIface(t)
	for _, c := range []struct {
		name   string
		family uint16
		to     string
		len    uintptr
		addr   []byte // the sockaddr's address bytes
		scope  uint32
	}{
		{"inet4/ipv4", syscall.AF_INET, "192.0.2.7:7001", syscall.SizeofSockaddrInet4, []byte{192, 0, 2, 7}, 0},
		{"inet6/ipv4", syscall.AF_INET6, "192.0.2.7:7001", syscall.SizeofSockaddrInet6,
			[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 192, 0, 2, 7}, 0},
		{"inet6/ipv6", syscall.AF_INET6, "[2001:db8::7]:7001", syscall.SizeofSockaddrInet6,
			[]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7}, 0},
		{"inet6/link-local", syscall.AF_INET6, "[fe80::7%" + lo.Name + "]:7001", syscall.SizeofSockaddrInet6,
			[]byte{0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7}, uint32(lo.Index)},
		{"inet6/numeric-zone", syscall.AF_INET6, "[fe80::7%4000000]:7001", syscall.SizeofSockaddrInet6,
			[]byte{0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7}, 4000000},
	} {
		to := netip.MustParseAddrPort(c.to)
		pa, ok := encodePeer(c.family, to)
		if !ok {
			t.Errorf("%s: refused", c.name)
			continue
		}
		raw := (*[syscall.SizeofSockaddrAny]byte)(unsafe.Pointer(&pa.sa))
		if pa.sa.Addr.Family != c.family || pa.len != c.len {
			t.Errorf("%s: family %d len %d, want %d and %d", c.name, pa.sa.Addr.Family, pa.len, c.family, c.len)
		}
		// Both layouts put the port right after the family: 7001 = 0x1B59.
		if raw[2] != 0x1B || raw[3] != 0x59 {
			t.Errorf("%s: port bytes %x, want 1b59 (network order)", c.name, raw[2:4])
		}
		var addr []byte
		var scope uint32
		if c.family == syscall.AF_INET {
			addr = (*syscall.RawSockaddrInet4)(unsafe.Pointer(&pa.sa)).Addr[:]
		} else {
			sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&pa.sa))
			addr, scope = sa.Addr[:], sa.Scope_id
		}
		if string(addr) != string(c.addr) || scope != c.scope {
			t.Errorf("%s: address %x scope %d, want %x scope %d", c.name, addr, scope, c.addr, c.scope)
		}
		if c.scope == 4000000 {
			continue // no interface names that scope, so it decodes as "4000000"
		}
		if got := (&rawSock{rsa: pa.sa}).source(); got != to {
			t.Errorf("%s: decodes back to %v, want %v", c.name, got, to)
		}
	}
	for _, c := range []struct {
		family uint16
		to     netip.AddrPort
	}{
		{syscall.AF_INET, netip.MustParseAddrPort("[::1]:7001")},
		{syscall.AF_INET, netip.AddrPort{}},
		{syscall.AF_INET6, netip.AddrPort{}},
	} {
		if _, ok := encodePeer(c.family, c.to); ok {
			t.Errorf("family %d encoded unaddressable peer %v", c.family, c.to)
		}
	}
}
