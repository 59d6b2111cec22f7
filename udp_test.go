package dip

// In-process UDP overlay test: the same library that runs on the simulator
// drives real sockets (the cmd/diprouter + cmd/diphost deployment shape),
// exercising the full NDN interest/data exchange across localhost.

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"
)

func udpConn(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func udpAddrPort(c *net.UDPConn) netip.AddrPort { return c.LocalAddr().(*net.UDPAddr).AddrPort() }

func TestUDPOverlayNDNExchange(t *testing.T) {
	routerConn := udpConn(t)
	consumerConn := udpConn(t)
	producerConn := udpConn(t)

	// Router: port 0 → consumer, port 1 → producer, content under
	// 0xAA/8 routed to the producer.
	state := NewNodeState()
	state.NameFIB.AddUint32(0xAA000000, 8, NextHop{Port: 1})
	r := NewRouter(state.OpsConfig(), RouterOptions{Name: "udp-router"})
	// Datagrams are attributed to ports by their sender's address.
	srv := r.ServeUDP(routerConn, []netip.AddrPort{udpAddrPort(consumerConn), udpAddrPort(producerConn)}, ServeConfig{})
	defer srv.Close()

	// Producer loop: answer any interest with data.
	go func() {
		buf := make([]byte, 65535)
		producerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := producerConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		v, err := ParsePacket(buf[:n])
		if err != nil || v.FNNum() == 0 || v.FN(0).Key != KeyFIB {
			t.Errorf("producer got unexpected packet: %v", err)
			return
		}
		reply, err := BuildPacket(NDNDataProfile(0xAA000042), []byte("udp bits"))
		if err != nil {
			t.Error(err)
			return
		}
		producerConn.WriteTo(reply, routerConn.LocalAddr())
	}()

	// Consumer: send the interest, await the data.
	interest, err := BuildPacket(NDNInterestProfile(0xAA000042), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := consumerConn.WriteTo(interest, routerConn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	consumerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := consumerConn.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("consumer receive: %v", err)
	}
	stack := NewHost()
	rx := stack.HandlePacket(buf[:n])
	if rx.Kind.String() != "delivered" || !bytes.Equal(rx.Payload, []byte("udp bits")) {
		t.Fatalf("rx %v payload %q", rx.Kind, rx.Payload)
	}

}

func TestUDPOverlayOPTVerification(t *testing.T) {
	routerConn := udpConn(t)
	consumerConn := udpConn(t)

	sv, err := NewSecret("udp-r", bytes.Repeat([]byte{0x66}, 16))
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewSecret("udp-c", bytes.Repeat([]byte{0x77}, 16))
	sess, err := NewSession(MAC2EM, []HopConfig{{Secret: sv}}, dst)
	if err != nil {
		t.Fatal(err)
	}

	// A router whose only job is the OPT authentication chain, forwarding
	// everything to the consumer via a default DIP-32 route.
	state := NewNodeState()
	state.EnableOPT(sv, MAC2EM, [16]byte{}, 0)
	state.FIB32.AddUint32(0, 0, NextHop{Port: 0})
	r := NewRouter(state.OpsConfig(), RouterOptions{})
	srv := r.ServeUDP(routerConn, []netip.AddrPort{udpAddrPort(consumerConn)}, ServeConfig{})
	defer srv.Close()

	// Source: OPT profile composed with DIP-32 forwarding in one header —
	// protocol composition over real sockets.
	payload := []byte("socket-verified")
	h, err := OPTProfile(sess, payload, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Prepend forwarding: destination+source addresses after the OPT region.
	off := uint16(len(h.Locations) * 8)
	h.Locations = append(h.Locations, 10, 0, 0, 2, 10, 0, 0, 1)
	h.FNs = append([]FN{
		{Loc: off, Len: 32, Key: KeyMatch32},
		{Loc: off + 32, Len: 32, Key: KeySource},
	}, h.FNs...)
	pkt, err := BuildPacket(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	sender := udpConn(t)
	if _, err := sender.WriteTo(pkt, routerConn.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 65535)
	consumerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := consumerConn.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("consumer receive: %v", err)
	}
	stack := NewHost()
	stack.Sessions.Add(sess)
	rx := stack.HandlePacket(buf[:n])
	if rx.Kind.String() != "delivered" {
		t.Fatalf("verification over UDP failed: %v/%v", rx.Kind, rx.Reason)
	}
}
