package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dip/internal/profiles"
)

// wire-ip: the real diprouter binary on the loopback interface. The
// generator sends 128-byte DIP-32 packets from its own socket (the router's
// port 0) toward 1024 destinations covered by 4096 /24 routes that all
// point at port 1, the sink socket. Egress time is the kernel's receive
// timestamp on the sink socket (SO_TIMESTAMPNS), so the sink goroutine's
// own wake-up delay is not charged to the router.
const (
	wireRoutes  = 4096
	wireDests   = 1024
	wirePktSize = 128
	wireStream  = 1 << 16 // destination sequence length (cycled)
	// seqOff is where the 8-byte sequence number sits: right after the
	// 26-byte DIP-32 header. Probe packets set the top bit.
	seqOff   = 26
	probeBit = uint64(1) << 63
	// wireCatchUp bounds the generator's send rate, as a multiple of the
	// offered rate, while it makes up for a stall of its own. Sent in one
	// burst, the units due during a VM stall of tens of milliseconds
	// overflow diprouter's socket receive buffer (about 200 KB, the
	// kernel default) and are lost before the router sees them.
	wireCatchUp = 2
)

type wireBench struct {
	seed   int64
	router string // diprouter binary
	logDir string

	gen, sink  *net.UDPConn
	genAddr    *net.UDPAddr
	sinkAddr   *net.UDPAddr
	routerAddr *net.UDPAddr
	routerAP   netip.AddrPort
	metricsAt  string // host:port of the router's observability listener, traced runs only

	proc       *exec.Cmd
	procExited chan error
	nextSeq    uint64

	tmpl   [][]byte // per destination: the packet as sent, sequence number zero
	stream []uint16 // destination index of sequence number s is stream[s%len]
	digest uint64   // input-stream digest (same seed, same digest)

	// wallAtMono converts mono() readings to the CLOCK_REALTIME scale of
	// kernel receive timestamps.
	wallAtMono int64

	mu     sync.Mutex
	trial  *wireTrial
	probe  chan uint64 // probe sequence numbers seen at the sink
	sinkWG sync.WaitGroup
}

// wireTrial is the sink-side bookkeeping of one open-loop phase.
type wireTrial struct {
	base    uint64 // first sequence number
	n       int
	p       *pacer
	got     []uint8
	latNs   []float32 // per unit, valid where got is set
	lat     *samples
	wrong   int
	dup     int
	lastArr int64
	ndeliv  int
}

func newWireBench(seed int64, router, logDir string) (*wireBench, error) {
	w := &wireBench{seed: seed, router: router, logDir: logDir, probe: make(chan uint64, 16)}
	w.buildInputs()
	var err error
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if w.sink, err = net.ListenUDP("udp", lo); err != nil {
		return nil, fmt.Errorf("sink socket: %w", err)
	}
	w.sinkAddr = w.sink.LocalAddr().(*net.UDPAddr)
	if err := enableRxTimestamps(w.sink); err != nil {
		w.sink.Close()
		return nil, err
	}
	// A large receive buffer keeps the sink from being the drop point.
	_ = w.sink.SetReadBuffer(8 << 20) // best effort; the kernel caps it at rmem_max
	port, err := freeUDPPort()
	if err != nil {
		w.sink.Close()
		return nil, err
	}
	w.routerAddr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	w.routerAP = netip.AddrPortFrom(w.routerAddr.AddrPort().Addr().Unmap(), uint16(port))
	genLocal := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if w.gen, err = net.DialUDP("udp", genLocal, w.routerAddr); err != nil {
		w.sink.Close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	w.genAddr = w.gen.LocalAddr().(*net.UDPAddr)
	w.wallAtMono = time.Now().UnixNano() - mono()
	w.sinkWG.Add(1)
	go w.sinkLoop()
	return w, nil
}

// buildInputs derives every packet the generator can send from the seed:
// 1024 destinations inside the routed /24s, a 65536-long destination
// sequence, and seed-derived filler bytes per destination.
func (w *wireBench) buildInputs() {
	rng := rand.New(rand.NewSource(w.seed))
	perm := rng.Perm(wireRoutes)
	w.tmpl = make([][]byte, wireDests)
	for d := range w.tmpl {
		route := perm[d]
		dst := [4]byte{10, byte(route >> 8), byte(route), byte(1 + rng.Intn(254))}
		src := [4]byte{192, 168, byte(d >> 8), byte(d)}
		h := profiles.IPv4(src, dst)
		pkt, err := h.AppendTo(make([]byte, 0, wirePktSize))
		if err != nil || len(pkt) != seqOff {
			panic(fmt.Sprintf("DIP-32 header is %d bytes, want %d (%v)", len(pkt), seqOff, err))
		}
		pkt = pkt[:wirePktSize]
		rng.Read(pkt[seqOff+8:])
		w.tmpl[d] = pkt
	}
	w.stream = make([]uint16, wireStream)
	h := fnvOffset
	for i := range w.stream {
		w.stream[i] = uint16(rng.Intn(wireDests))
	}
	for _, d := range w.stream {
		h = fnvAdd(h, w.tmpl[d])
	}
	w.digest = h
}

// packet writes sequence number seq's packet into buf (as sent).
func (w *wireBench) packet(buf []byte, seq uint64) []byte {
	t := w.tmpl[w.stream[seq%wireStream]]
	buf = append(buf[:0], t...)
	binary.BigEndian.PutUint64(buf[seqOff:], seq)
	return buf
}

// checkOutput is the wire-ip oracle: the egress packet must be exactly the
// sent packet with the hop limit one lower.
func (w *wireBench) checkOutput(pkt []byte, seq uint64) bool {
	if len(pkt) != wirePktSize {
		return false
	}
	t := w.tmpl[w.stream[seq%wireStream]]
	if pkt[3] != t[3]-1 {
		return false
	}
	for i := range pkt {
		switch {
		case i == 3:
		case i >= seqOff && i < seqOff+8:
		default:
			if pkt[i] != t[i] {
				return false
			}
		}
	}
	return true
}

// sinkLoop drains the sink socket without blocking every ~0.5ms instead of
// waking per datagram: arrival times come from the kernel timestamps, so
// batching the reads costs no accuracy and keeps the benchmark's own CPU
// use (and its wake-ups) off the router's back.
func (w *wireBench) sinkLoop() {
	defer w.sinkWG.Done()
	rc, err := w.sink.SyscallConn()
	if err != nil {
		return
	}
	buf := make([]byte, 2048)
	oob := make([]byte, 128)
	for {
		err := rc.Read(func(fd uintptr) bool {
			for {
				n, oobn, _, from, err := syscall.Recvmsg(int(fd), buf, oob, syscall.MSG_DONTWAIT)
				if err != nil {
					return true // EAGAIN: drained
				}
				rx, ok := rxTimestamp(oob[:oobn])
				if !ok {
					rx = w.wallAtMono + mono()
				}
				w.receive(buf[:n], sockaddrPort(from), rx)
			}
		})
		if err != nil {
			return // closed
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func sockaddrPort(sa syscall.Sockaddr) netip.AddrPort {
	if in4, ok := sa.(*syscall.SockaddrInet4); ok {
		return netip.AddrPortFrom(netip.AddrFrom4(in4.Addr), uint16(in4.Port))
	}
	return netip.AddrPort{}
}

// receive classifies one sink datagram. rx is its wall-clock arrival (ns).
func (w *wireBench) receive(pkt []byte, from netip.AddrPort, rx int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(pkt) < seqOff+8 {
		if w.trial != nil {
			w.trial.wrong++
		}
		return
	}
	seq := binary.BigEndian.Uint64(pkt[seqOff:])
	fromRouter := from.Port() == w.routerAP.Port() && from.Addr().Unmap() == w.routerAP.Addr()
	if seq&probeBit != 0 {
		if fromRouter && w.checkOutput(pkt, seq&^probeBit) {
			select {
			case w.probe <- seq &^ probeBit:
			default:
			}
		}
		return
	}
	t := w.trial
	if t == nil || seq < t.base {
		return // a straggler from an earlier phase
	}
	i := int(seq - t.base)
	if i >= t.n || !fromRouter || !w.checkOutput(pkt, seq) {
		t.wrong++
		return
	}
	t.got[i]++
	if t.got[i] > 1 {
		t.dup++
		return
	}
	t.ndeliv++
	t.lastArr = mono()
	l := rx - (w.wallAtMono + t.p.due(i))
	t.lat.add(l)
	t.latNs[i] = float32(l)
}

// startRouter execs diprouter and returns once a probe packet has crossed
// it correctly, reporting the elapsed time (the set-up time).
func (w *wireBench) startRouter(extra ...string) (time.Duration, error) {
	args := []string{
		"-listen", w.routerAddr.String(),
		"-peer", w.genAddr.String(), // port 0: traffic enters here
		"-peer", w.sinkAddr.String(), // port 1: every route leads here
		"-workers", "1",
		// The same deep ingress rings as the in-process workloads: a stall
		// of the forwarder's CPU queues packets instead of shedding them.
		"-queue", strconv.Itoa(inprocQueue),
	}
	for r := 0; r < wireRoutes; r++ {
		args = append(args, "-route32", fmt.Sprintf("10.%d.%d.0/24=1", r>>8, r&0xFF))
	}
	args = append(args, extra...)
	logf, err := os.Create(filepath.Join(w.logDir, "diprouter.log"))
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.Command(w.router, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for len(w.probe) > 0 {
		<-w.probe
	}
	t0 := mono()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start diprouter: %w", err)
	}
	w.proc = cmd
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	w.procExited = exited
	buf := make([]byte, 0, wirePktSize)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(20 * time.Second)
	for id := uint64(1); ; id++ {
		if _, err := w.gen.Write(w.packet(buf, id|probeBit)); err != nil && !isConnRefused(err) {
			return 0, fmt.Errorf("probe: %w", err)
		}
		select {
		case <-w.probe:
			return time.Duration(mono() - t0), nil
		case err := <-exited:
			w.proc = nil
			return 0, fmt.Errorf("diprouter exited during set-up: %v (see %s)", err, logf.Name())
		case <-deadline:
			return 0, errors.New("diprouter: no probe crossed within 20s")
		case <-tick.C:
		}
	}
}

// stopRouter kills diprouter and waits for it to exit.
func (w *wireBench) stopRouter() {
	if w.proc == nil {
		return
	}
	_ = w.proc.Process.Kill() // it may already have exited; Wait reports either way
	<-w.procExited
	w.proc = nil
}

func (w *wireBench) close() {
	w.stopRouter()
	w.gen.Close()
	w.sink.Close()
	w.sinkWG.Wait()
}

// phase offers rate pps for d and waits for the outputs to drain. lat and
// late receive the phase's latency and generator-lateness samples.
func (w *wireBench) phase(rate float64, d time.Duration, lat, late *samples) trialResult {
	st := startSteal()
	drops0 := rcvbufErrors()
	p := newPacer(rate, d, late)
	p.minGap = int64(p.interval / wireCatchUp)
	w.mu.Lock()
	w.nextSeq += uint64(p.n) // leave a gap so stragglers are never mistaken
	t := &wireTrial{base: w.nextSeq, n: p.n, p: p, got: make([]uint8, p.n), latNs: make([]float32, p.n), lat: lat}
	w.nextSeq += uint64(p.n)
	w.trial = t
	w.mu.Unlock()

	buf := make([]byte, 0, wirePktSize)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	for !p.done() {
		now := waitUntil(p.nextSend())
		for k := p.take(now, 64); k > 0; k-- {
			seq := t.base + uint64(p.next-k)
			if _, err := w.gen.Write(w.packet(buf, seq)); err != nil {
				// A refused send (ICMP from a dead router) shows up as loss.
				continue
			}
		}
	}
	lastSend := mono()
	// Drain: wait for every output, or until arrivals stop.
	for {
		time.Sleep(2 * time.Millisecond)
		w.mu.Lock()
		all := t.ndeliv >= t.n
		quiet := mono()-max(t.lastArr, lastSend) > int64(30*time.Millisecond)
		w.mu.Unlock()
		if all || quiet || mono()-lastSend > int64(2*time.Second) {
			break
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.trial = nil
	r := trialResult{offered: p.offered(), sent: p.n, delivered: t.ndeliv, wrong: t.wrong, dup: t.dup,
		steal: st.share(), pacer: p, got: t.got, latNs: t.latNs, rcvbufDrops: rcvbufErrors() - drops0}
	r.judge(t.got, t.latNs)
	return r
}

// routerCPU reads the router process's CPU time (ns) summed over its
// threads from /proc/<pid>/task/*/schedstat.
func (w *wireBench) routerCPU() (int64, error) {
	return processCPU(w.proc.Process.Pid)
}

func threadCPU(pid, tid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%d/schedstat", pid, tid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("empty schedstat for thread %d", tid)
	}
	return strconv.ParseInt(f[0], 10, 64)
}

func processCPU(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	return total, nil
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line")
}

func freeUDPPort() (int, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

func isConnRefused(err error) bool { return errors.Is(err, syscall.ECONNREFUSED) }

// enableRxTimestamps turns on SO_TIMESTAMPNS so every datagram carries the
// kernel's receive time.
func enableRxTimestamps(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("SO_TIMESTAMPNS: %w", serr)
	}
	return nil
}

// rxTimestamp extracts the SCM_TIMESTAMPNS control message (wall ns)
// without allocating. A control message is a cmsghdr (64-bit length, 32-bit
// level, 32-bit type) followed by its data, padded to 8 bytes.
func rxTimestamp(oob []byte) (int64, bool) {
	const hdr = 16
	for len(oob) >= hdr {
		l := int(binary.NativeEndian.Uint64(oob[0:8]))
		level := int32(binary.NativeEndian.Uint32(oob[8:12]))
		typ := int32(binary.NativeEndian.Uint32(oob[12:16]))
		if l < hdr || l > len(oob) {
			return 0, false
		}
		if level == syscall.SOL_SOCKET && typ == syscall.SCM_TIMESTAMPNS && l >= hdr+16 {
			sec := int64(binary.NativeEndian.Uint64(oob[hdr : hdr+8]))
			nsec := int64(binary.NativeEndian.Uint64(oob[hdr+8 : hdr+16]))
			return sec*1e9 + nsec, true
		}
		oob = oob[min((l+7)&^7, len(oob)):]
	}
	return 0, false
}

// wireSetups is how many times each run starts diprouter; setup_s is the
// median.
const wireSetups = 11

func runWire(cfg runConfig, spec workloadSpec) (*result, error) {
	w, err := newWireBench(cfg.seed, cfg.router, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{digest: w.digest}
	var extra []string
	if cfg.traced {
		port, err := freeTCPPort()
		if err != nil {
			return nil, err
		}
		w.metricsAt = fmt.Sprintf("127.0.0.1:%d", port)
		extra = []string{"-metrics-addr", w.metricsAt}
	}
	for i := 0; i < wireSetups; i++ {
		w.stopRouter()
		d, err := w.startRouter(extra...)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
	}
	pid := w.proc.Process.Pid

	w.phase(spec.refRate, secs(spec.warmSeconds(cfg.seconds)), newSamples(0), newSamples(0))
	if cfg.traced {
		return res, w.traced(cfg, spec, res)
	}
	if err := w.reference(spec, secs(spec.refSeconds(cfg.seconds)), res); err != nil {
		return nil, err
	}
	if res.rssMB, err = vmHWM(pid); err != nil {
		return nil, err
	}
	res.search = findMaxRate(spec.search(), func(rate float64, d time.Duration) trialResult {
		return w.phase(rate, d, newSamples(int(rate*d.Seconds())), newSamples(int(rate*d.Seconds())))
	})
	res.maxRate, res.confirmed = res.search.maxRate, res.search.confirmed
	return res, nil
}

// reference runs the reference phase: latency, loss and the router's CPU
// per packet at the fixed reference rate.
func (w *wireBench) reference(spec workloadSpec, d time.Duration, res *result) error {
	n := int(spec.refRate * d.Seconds())
	lat, late := newSamples(n), newSamples(n)
	stop := make(chan struct{})
	wins := sampleWindows(w.routerCPU, spec.refRate, d/refWindows, stop)
	res.ref = w.phase(spec.refRate, d, lat, late)
	close(stop)
	fillReference(res, res.ref, lat, late, <-wins)
	return nil
}

func freeTCPPort() (int, error) {
	l, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
