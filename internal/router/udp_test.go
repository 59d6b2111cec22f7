package router

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// hopLimitOff is the hop limit's byte in the DIP header (version, next
// header, FN count, hop limit).
const hopLimitOff = 3

// udpHarness is a router served over a loopback socket by ServeUDP, with
// two peer sockets: gen (port 0, where traffic enters) and sink (port 1,
// where 10.0.0.0/8 leads). Extra peers become ports 2 and up, and
// 30.0.0.0/8 leads to port 2. 20.0.0.0/8 is delivered locally, and each
// local delivery reports its ingress port on delivered.
type udpHarness struct {
	srv       *UDPServer
	conn      *net.UDPConn   // the router's socket
	routerAP  netip.AddrPort // where peers send (IPv4 loopback)
	gen, sink *net.UDPConn
	metrics   *telemetry.Metrics
	delivered chan int
}

func listenUDP(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Skipf("no UDP socket on %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func addrOf(c *net.UDPConn) netip.AddrPort { return c.LocalAddr().(*net.UDPAddr).AddrPort() }

func newUDPHarness(t *testing.T, listen string, cfg ServeConfig, extra ...netip.AddrPort) *udpHarness {
	t.Helper()
	ocfg := baseCfg(t)
	ocfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 1})
	ocfg.FIB32.AddUint32(0x14000000, 8, fib.Local)
	ocfg.FIB32.AddUint32(0x1E000000, 8, fib.NextHop{Port: 2})
	h := &udpHarness{metrics: &telemetry.Metrics{}, delivered: make(chan int, 64)}
	r := New(ops.NewRouterRegistry(ocfg), Config{
		Metrics:       h.metrics,
		LocalDelivery: func(_ []byte, inPort int) { h.delivered <- inPort },
	})
	h.conn = listenUDP(t, listen)
	h.gen = listenUDP(t, "127.0.0.1:0")
	h.sink = listenUDP(t, "127.0.0.1:0")
	_ = h.sink.SetReadBuffer(1 << 20)
	h.routerAP = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), addrOf(h.conn).Port())
	peers := append([]netip.AddrPort{addrOf(h.gen), addrOf(h.sink)}, extra...)
	h.srv = r.ServeUDP(h.conn, peers, cfg)
	t.Cleanup(h.srv.Close)
	return h
}

func (h *udpHarness) send(t *testing.T, from *net.UDPConn, p []byte) {
	t.Helper()
	if _, err := from.WriteToUDPAddrPort(p, h.routerAP); err != nil {
		t.Fatal(err)
	}
}

// recv reads one egress datagram from the sink, failing after a timeout.
func (h *udpHarness) recv(t *testing.T, buf []byte) []byte {
	t.Helper()
	_ = h.sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := h.sink.Read(buf)
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	return buf[:n]
}

func (h *udpHarness) deliveredPort(t *testing.T) int {
	t.Helper()
	select {
	case p := <-h.delivered:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("no local delivery")
		return -1
	}
}

// wirePkt is flowPkt's packet routed to the sink instead of delivered
// locally: flow f, with the per-flow sequence number seq as payload.
func wirePkt(t *testing.T, f, seq int) []byte {
	var payload [8]byte
	binary.BigEndian.PutUint32(payload[:4], uint32(f))
	binary.BigEndian.PutUint32(payload[4:], uint32(seq))
	return pkt(t, profiles.IPv4([4]byte{1, 1, 1, byte(f)}, [4]byte{10, 0, byte(f), 1}), payload[:])
}

var udpWorkers = []int{1, 2}

// TestServeUDPForwardsExactly pushes interleaved flows through the socket
// dataplane and checks every egress datagram against what was sent: equal
// byte for byte except a hop limit exactly one lower, each flow in order,
// nothing lost or duplicated.
func TestServeUDPForwardsExactly(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			var socketErrs atomic.Int64
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{
				Workers:       workers,
				OnSocketError: func(error) { socketErrs.Add(1) },
			})
			const flows, perFlow, window = 8, 64, 32
			rng := rand.New(rand.NewSource(int64(workers)))
			sent := map[[2]int][]byte{}
			next := make([]int, flows)
			want := make([]int, flows)
			buf := make([]byte, 2048)
			for total := 0; total < flows*perFlow; total += window {
				// Send a window of randomly interleaved flows, then
				// drain it: the kernel buffers never overflow, so any
				// missing datagram is the router's.
				for i := 0; i < window; i++ {
					f := rng.Intn(flows)
					for next[f] == perFlow {
						f = (f + 1) % flows
					}
					p := wirePkt(t, f, next[f])
					sent[[2]int{f, next[f]}] = append([]byte(nil), p...)
					next[f]++
					h.send(t, h.gen, p)
				}
				for i := 0; i < window; i++ {
					got := h.recv(t, buf)
					f, seq := flowSeqOf(got)
					if f < 0 || f >= flows || seq != want[f] {
						t.Fatalf("flow %d: got seq %d, want %d (reordered, lost or duplicated)", f, seq, want[f])
					}
					want[f]++
					exp := sent[[2]int{f, seq}]
					exp[hopLimitOff]--
					if !bytes.Equal(got, exp) {
						t.Fatalf("flow %d seq %d:\n got %x\nwant %x", f, seq, got, exp)
					}
				}
			}
			_ = h.sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			if n, err := h.sink.Read(buf); err == nil {
				t.Fatalf("extra egress datagram: %x", buf[:n])
			}
			if n := socketErrs.Load(); n != 0 {
				t.Errorf("%d socket errors", n)
			}
		})
	}
}

// TestServeUDPPortAttribution: a datagram's ingress port is its sender's;
// unknown senders land on port 0.
func TestServeUDPPortAttribution(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{Workers: workers})
			local := pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{20, 0, 0, 1}), nil)
			stranger := listenUDP(t, "127.0.0.1:0")
			for _, c := range []struct {
				name string
				from *net.UDPConn
				port int
			}{{"sink", h.sink, 1}, {"stranger", stranger, 0}, {"gen", h.gen, 0}} {
				h.send(t, c.from, local)
				if got := h.deliveredPort(t); got != c.port {
					t.Errorf("datagram from %s arrived on port %d, want %d", c.name, got, c.port)
				}
			}
		})
	}
}

// TestServeUDPDualStack pins the Unmap requirement: on a dual-stack [::]
// socket an IPv4 peer's datagrams carry a v4-mapped source, which must
// still map to the peer's own port, and egress to an IPv4 peer must work.
func TestServeUDPDualStack(t *testing.T) {
	h := newUDPHarness(t, "[::]:0", ServeConfig{Workers: 1})
	h.send(t, h.sink, pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{20, 0, 0, 1}), nil))
	if got := h.deliveredPort(t); got != 1 {
		t.Fatalf("IPv4 peer on a dual-stack socket arrived on port %d, want 1", got)
	}
	h.send(t, h.gen, wirePkt(t, 0, 0))
	h.recv(t, make([]byte, 2048))
}

// TestServeUDPInjectWhileReaderBlocked: a packet injected while the reader
// waits in read is forwarded with no further datagram arriving.
func TestServeUDPInjectWhileReaderBlocked(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{Workers: workers})
			buf := make([]byte, 2048)
			h.send(t, h.gen, wirePkt(t, 1, 0))
			h.recv(t, buf)
			time.Sleep(20 * time.Millisecond) // the reader is back in read
			injected := make(chan bool)
			go func() { injected <- h.srv.Inject(wirePkt(t, 2, 7), 0) }()
			if !<-injected {
				t.Fatal("inject refused")
			}
			got := h.recv(t, buf)
			if f, seq := flowSeqOf(got); f != 2 || seq != 7 {
				t.Fatalf("sink got %x, want the injected packet", got)
			}
		})
	}
}

// TestServeUDPStallVisible: the inline forwarder is a watched worker, so a
// Port.Send blocked past StallAfter is reported as a stall.
func TestServeUDPStallVisible(t *testing.T) {
	ocfg := baseCfg(t)
	ocfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 0})
	r := New(ops.NewRouterRegistry(ocfg), Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	r.AttachPort(PortFunc(func([]byte) {
		close(started)
		<-release
	}))
	var clk atomic.Int64
	conn := listenUDP(t, "127.0.0.1:0")
	gen := listenUDP(t, "127.0.0.1:0")
	srv := r.ServeUDP(conn, []netip.AddrPort{addrOf(gen)}, ServeConfig{
		Workers: 1, StallAfter: 10 * time.Millisecond,
		Clock: func() time.Duration { return time.Duration(clk.Load()) },
	})
	defer srv.Close()
	if _, err := gen.WriteToUDPAddrPort(wirePkt(t, 0, 0), addrOf(conn)); err != nil {
		t.Fatal(err)
	}
	<-started
	if h, ok := r.Health(); !ok || h.Workers != 1 || h.Stalled != 0 {
		t.Errorf("before threshold: ok=%v %+v", ok, h)
	}
	clk.Store(int64(time.Second))
	if h, _ := r.Health(); h.Stalled != 1 {
		t.Errorf("blocked Send not reported as a stall: %+v", h)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, _ := r.Health()
		if h.Stalled == 0 && h.Processed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall persists after Send returned: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeUDPIPv6Peer: on a [::] socket an [::1] peer's datagrams arrive
// on its own port, and egress routed to that port reaches it.
func TestServeUDPIPv6Peer(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			v6 := listenUDP(t, "[::1]:0")
			h := newUDPHarness(t, "[::]:0", ServeConfig{Workers: workers}, addrOf(v6))
			routerV6 := netip.AddrPortFrom(netip.IPv6Loopback(), h.routerAP.Port())
			if _, err := v6.WriteToUDPAddrPort(pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{20, 0, 0, 1}), nil), routerV6); err != nil {
				t.Fatal(err)
			}
			if got := h.deliveredPort(t); got != 2 {
				t.Fatalf("datagram from the IPv6 peer arrived on port %d, want 2", got)
			}
			p := pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{30, 0, 0, 1}), []byte("to v6"))
			want := append([]byte(nil), p...)
			want[hopLimitOff]--
			h.send(t, h.gen, p)
			buf := make([]byte, 2048)
			_ = v6.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, from, err := v6.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("IPv6 peer: %v", err)
			}
			if !bytes.Equal(buf[:n], want) {
				t.Fatalf("IPv6 peer got %x, want %x", buf[:n], want)
			}
			if from.Port() != h.routerAP.Port() {
				t.Errorf("egress came from %v, want the router's port %d", from, h.routerAP.Port())
			}
		})
	}
}

// TestServeUDPZeroLengthDatagram: an empty datagram is a packet like any
// other — processed, and dropped as malformed — and the next one still
// forwards.
func TestServeUDPZeroLengthDatagram(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{Workers: workers})
			h.send(t, h.gen, nil)
			h.send(t, h.gen, wirePkt(t, 3, 0))
			if f, seq := flowSeqOf(h.recv(t, make([]byte, 2048))); f != 3 || seq != 0 {
				t.Fatalf("sink got flow %d seq %d, want the datagram after the empty one", f, seq)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				processed := h.srv.Ingress().Processed()
				malformed := h.metrics.Snapshot().Drops[core.DropMalformed]
				if processed == 2 && malformed == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("processed %d (want 2), malformed drops %d (want 1)", processed, malformed)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestServeUDPUnreachablePeer: a peer the socket cannot address (IPv6 on
// an IPv4 socket) fails every send through OnSocketError, and the other
// ports keep forwarding.
func TestServeUDPUnreachablePeer(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			errs := make(chan error, 16)
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{
				Workers:       workers,
				OnSocketError: func(err error) { errs <- err },
			}, netip.MustParseAddrPort("[::1]:9"))
			const sends = 3
			for i := 0; i < sends; i++ {
				h.send(t, h.gen, pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{30, 0, 0, byte(i)}), nil))
			}
			for i := 0; i < sends; i++ {
				select {
				case err := <-errs:
					if !strings.Contains(err.Error(), "non-IPv4 address") {
						t.Errorf("send %d: %v, want a non-IPv4 address error", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d failed sends reported", i, sends)
				}
			}
			h.send(t, h.gen, wirePkt(t, 4, 0))
			if f, seq := flowSeqOf(h.recv(t, make([]byte, 2048))); f != 4 || seq != 0 {
				t.Fatalf("sink got flow %d seq %d after the failed sends", f, seq)
			}
			select {
			case err := <-errs:
				t.Errorf("extra socket error: %v", err)
			default:
			}
		})
	}
}

// TestServeUDPWaitAfterConnClose: closing conn under a running server
// stops the reader, so Wait returns.
func TestServeUDPWaitAfterConnClose(t *testing.T) {
	for _, workers := range udpWorkers {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			h := newUDPHarness(t, "127.0.0.1:0", ServeConfig{Workers: workers})
			h.send(t, h.gen, wirePkt(t, 5, 0))
			h.recv(t, make([]byte, 2048))
			h.conn.Close()
			waited := make(chan struct{})
			go func() { h.srv.Wait(); close(waited) }()
			select {
			case <-waited:
			case <-time.After(5 * time.Second):
				t.Fatal("Wait did not return after conn was closed")
			}
		})
	}
}
