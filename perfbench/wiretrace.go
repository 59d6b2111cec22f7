package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dip"
	"dip/internal/guard"
	"dip/internal/telemetry"
)

// The wire-ip traced run cannot put spans inside the diprouter binary. It
// turns on the router's -metrics-addr listener, captures a CPU profile from
// /debug/pprof/profile over the traced reference phase, buckets the samples
// by stack into the router's layers, and reads /metrics and the heap
// profile's MemStats before and after. The router library's own layers are
// then measured in this process by replaying the wire packets through
// HandlePacket and core.Engine.Process.

// cpuBuckets assigns a profile stack to a layer by the first (innermost to
// outermost) frame that matches; order matters.
var cpuBuckets = []struct {
	layer string
	match []string
}{
	{"telemetry", []string{"dip/internal/telemetry."}},
	{"core+ops", []string{"dip/internal/core.", "dip/internal/ops.", "dip/internal/fib.", "dip/internal/bitfield."}},
	{"guard+router", []string{"dip/internal/router.", "dip/internal/guard."}},
	{"socket-write", []string{"WriteToUDP", "internal/poll.(*FD).WriteTo", "internal/poll.(*FD).WriteMsg"}},
	{"socket-read", []string{"ReadFromUDP", "internal/poll.(*FD).ReadFrom", "internal/poll.(*FD).ReadMsg"}},
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcAssistAlloc"}},
	{"runtime-wakeup", []string{"runtime.netpoll", "runtime.findRunnable", "runtime.schedule", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.mcall", "runtime.park_m", "runtime.goready", "runtime.ready", "sync.(*Cond)", "runtime.sysmon", "runtime.usleep", "runtime.epollwait"}},
	{"alloc", []string{"runtime.mallocgc", "runtime.makeslice", "runtime.newobject", "runtime.concatstring", "runtime.growslice"}},
}

// profStack is one aggregated stack: its sampled CPU time and frames
// (innermost first).
type profStack struct {
	ns     float64
	frames []string
}

// parseTraces reads `go tool pprof -traces` output.
func parseTraces(r io.Reader) ([]profStack, error) {
	var out []profStack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *profStack
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if cur == nil {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue // header lines
			}
			out = append(out, profStack{ns: float64(d), frames: []string{f[1]}})
			cur = &out[len(out)-1]
			continue
		}
		cur.frames = append(cur.frames, f[0])
	}
	return out, sc.Err()
}

// bucketize sums stack time per layer; stacks matching no bucket go to
// "unattributed".
func bucketize(stacks []profStack) (map[string]float64, float64) {
	out := map[string]float64{}
	total := 0.0
	for _, s := range stacks {
		total += s.ns
		layer := "unattributed"
	frames:
		for _, fr := range s.frames {
			for _, b := range cpuBuckets {
				for _, m := range b.match {
					if strings.Contains(fr, m) {
						layer = b.layer
						break frames
					}
				}
			}
		}
		out[layer] += s.ns
	}
	return out, total
}

func httpGet(url string, timeout time.Duration) ([]byte, error) {
	c := http.Client{Timeout: timeout}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// memStats extracts runtime.MemStats fields from a heap?debug=1 profile.
func memStats(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || strings.HasPrefix(v, "[") {
			continue
		}
		if x, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = x
		}
	}
	return out
}

// gcPauses sums the stop-the-world pauses of GC cycles (from, to] from the
// PauseNs ring (256 most recent cycles) in a heap?debug=1 profile.
func gcPauses(body []byte, from, to int) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		v, ok := strings.CutPrefix(line, "# PauseNs = [")
		if !ok {
			continue
		}
		ring := strings.Fields(strings.TrimSuffix(v, "]"))
		if len(ring) != 256 {
			return 0
		}
		sum := 0.0
		for g := max(from+1, to-255); g <= to; g++ {
			x, _ := strconv.ParseFloat(ring[(g+255)%256], 64)
			sum += x
		}
		return sum
	}
	return 0
}

var (
	promLine  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	nodeLabel = regexp.MustCompile(`node="[^"]*",?`)
)

// scrape reads a Prometheus text page into name{labels} → value, dropping
// the node label every series carries.
func scrape(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		labels := nodeLabel.ReplaceAllString(m[2], "")
		if labels == "{}" {
			labels = ""
		}
		if v, err := strconv.ParseFloat(m[3], 64); err == nil {
			out[m[1]+labels] = v
		}
	}
	return out
}

// rcvbufErrors reads the host's UDP receive-buffer drop counter.
func rcvbufErrors() float64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var hdr []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp: ") {
			continue
		}
		f := strings.Fields(line)[1:]
		if hdr == nil {
			hdr = f
			continue
		}
		for i, k := range hdr {
			if k == "RcvbufErrors" && i < len(f) {
				v, _ := strconv.ParseFloat(f[i], 64)
				return v
			}
		}
	}
	return 0
}

// ctxSwitches sums a process's voluntary context switches over its threads.
func ctxSwitches(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	total := 0.0
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "voluntary_ctxt_switches:") {
				v, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "voluntary_ctxt_switches:")), 64)
				total += v
			}
		}
	}
	return total
}

func (w *wireBench) traced(cfg runConfig, spec workloadSpec, res *result) error {
	profSecs := max(int(spec.refSeconds(cfg.seconds)), 1)
	d := time.Duration(profSecs)*time.Second + 500*time.Millisecond
	n := int(spec.refRate * d.Seconds())
	pid := w.proc.Process.Pid
	base := "http://" + w.metricsAt

	// Untraced reference: the baseline for the tracing overhead.
	c0, err := w.routerCPU()
	if err != nil {
		return err
	}
	r0 := w.phase(spec.refRate, d, newSamples(n), newSamples(n))
	c1, err := w.routerCPU()
	if err != nil {
		return err
	}
	untraced := float64(c1-c0) / float64(max(r0.delivered, 1))

	heap0, err := httpGet(base+"/debug/pprof/heap?debug=1", 10*time.Second)
	if err != nil {
		return err
	}
	met0, err := httpGet(base+"/metrics", 10*time.Second)
	if err != nil {
		return err
	}
	sw0, drops0 := ctxSwitches(pid), rcvbufErrors()
	type profResult struct {
		body []byte
		err  error
	}
	prof := make(chan profResult, 1)
	go func() {
		b, err := httpGet(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, profSecs), time.Duration(profSecs+30)*time.Second)
		prof <- profResult{b, err}
	}()
	lat, late := newSamples(n), newSamples(n)
	c0, err = w.routerCPU()
	if err != nil {
		return err
	}
	res.ref = w.phase(spec.refRate, d, lat, late)
	c1, err = w.routerCPU()
	if err != nil {
		return err
	}
	sw1, drops1 := ctxSwitches(pid), rcvbufErrors()
	pr := <-prof
	if pr.err != nil {
		return fmt.Errorf("cpu profile: %w", pr.err)
	}
	heap1, err := httpGet(base+"/debug/pprof/heap?debug=1", 10*time.Second)
	if err != nil {
		return err
	}
	met1, err := httpGet(base+"/metrics", 10*time.Second)
	if err != nil {
		return err
	}
	fillReference(res, res.ref, lat, late, nil)
	pkts := float64(max(res.ref.delivered, 1))
	traced := float64(c1-c0) / pkts
	res.cpuNs = traced

	profPath := filepath.Join(cfg.outDir, "diprouter.cpu.pb.gz")
	if err := os.WriteFile(profPath, pr.body, 0o644); err != nil {
		return err
	}
	var out bytes.Buffer
	cmd := exec.Command(cfg.goTool, "tool", "pprof", "-traces", profPath)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	stacks, err := parseTraces(&out)
	if err != nil {
		return err
	}
	buckets, total := bucketize(stacks)
	share := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return buckets[layer] / total * traced
	}

	L := map[string]metric{}
	add := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	add("sock.recv_ns_per_pkt", share("socket-read"), "ns")
	add("sock.send_ns_per_pkt", share("socket-write"), "ns")
	add("io.rx_ns_per_pkt", share("socket-read"), "ns")
	add("io.tx_ns_per_pkt", share("socket-write"), "ns")
	add("rt.wake_ns_per_pkt", share("runtime-wakeup"), "ns")
	add("rt.ctx_switches_per_pkt", (sw1-sw0)/pkts, "count")
	add("sock.rcvbuf_drops", drops1-drops0, "count")
	add("profile.samples_ms", total/1e6, "ms")

	ms0, ms1 := memStats(heap0), memStats(heap1)
	handled := pkts
	add("rt.allocs_per_pkt", (ms1["Mallocs"]-ms0["Mallocs"])/handled, "count")
	add("rt.alloc_bytes_per_pkt", (ms1["TotalAlloc"]-ms0["TotalAlloc"])/handled, "bytes")
	add("rt.gc_cycles", ms1["NumGC"]-ms0["NumGC"], "count")
	add("rt.gc_pause_ns", gcPauses(heap1, int(ms0["NumGC"]), int(ms1["NumGC"])), "ns")
	add("sock.rx_alloc_bytes_per_pkt", (ms1["TotalAlloc"]-ms0["TotalAlloc"])/handled, "bytes")

	s0, s1 := scrape(met0), scrape(met1)
	processed := s1["dip_guard_processed_total"] - s0["dip_guard_processed_total"]
	shed := s1[`dip_guard_shed_total{class="bulk"}`] - s0[`dip_guard_shed_total{class="bulk"}`] +
		s1[`dip_guard_shed_total{class="control"}`] - s0[`dip_guard_shed_total{class="control"}`]
	add("ingress.shed_ratio", shed/max(processed+shed, 1), "ratio")
	add("ingress.queue_depth_max", s1[`dip_guard_queue_depth{class="bulk"}`]+s1[`dip_guard_queue_depth{class="control"}`], "count")
	fns := 0.0
	for k, v := range s1 {
		if !strings.HasPrefix(k, "dip_op_executions_total{") {
			continue
		}
		cnt := v - s0[k]
		fns += cnt
		op := k[strings.Index(k, `op="`)+4:]
		op = op[:strings.Index(op, `"`)]
		sumKey := strings.Replace(k, "dip_op_executions_total", "dip_op_latency_ns_total", 1)
		if cnt > 0 {
			add("op."+op+".ns", (s1[sumKey]-s0[sumKey])/cnt, "ns")
		}
	}
	add("engine.fns_per_pkt", fns/max(processed, 1), "count")
	add("gen.late_p50_us", res.genLateP50, "us")
	add("gen.late_p99_us", res.genLateP99, "us")
	// No content store or PIT on this path.
	add("cs.hit_ratio", 0, "ratio")
	add("pit.aggregate_ratio", 0, "ratio")
	add("pit.entries_peak", 0, "count")

	for k, v := range w.replay() {
		L[k] = v
	}
	res.ledger = []ledgerRow{
		{"socket read (ReadFromUDP, address string, copy; profile)", share("socket-read")},
		{"socket write (WriteToUDP; profile)", share("socket-write")},
		{"guard + router Ingress/HandlePacket (profile)", share("guard+router")},
		{"core engine + ops + fib (profile)", share("core+ops")},
		{"telemetry.Metrics (profile)", share("telemetry")},
		{"runtime wake-ups: netpoll, futex, scheduler (profile)", share("runtime-wakeup")},
		{"allocation (profile)", share("alloc")},
		{"GC (profile)", share("gc")},
	}
	// The named residual is everything else: the read loop's own frames in
	// main.main (port lookup, hand-off) and stacks no bucket matches.
	res.finishLedger("residual: read-loop frames in main.main, unmatched stacks", traced, untraced, L)
	res.layers = L
	return nil
}

// replay runs the wire-ip packets through the router library in this
// process with diprouter's routes: HandlePacket with the default Metrics
// recorder and with none, the bare engine, and direct FIB32 lookups and
// guard classification on the same packets.
func (w *wireBench) replay() map[string]metric {
	const n = 1 << 14
	build := func(withMetrics bool) *dip.Router {
		state := dip.NewNodeState()
		for r := 0; r < wireRoutes; r++ {
			_ = state.FIB32.AddUint32(uint32(10)<<24|uint32(r)<<8, 24, dip.NextHop{Port: 1})
		}
		opts := dip.RouterOptions{Name: "replay"}
		if withMetrics {
			opts.Metrics = &telemetry.Metrics{}
		}
		r := dip.NewRouter(state.OpsConfig(), opts)
		r.AttachPort(&countPort{})
		r.AttachPort(&countPort{})
		return r
	}
	rec := make([]recPacket, n)
	for i := range rec {
		rec[i] = recPacket{pkt: w.packet(nil, uint64(i)), port: 0}
	}
	var withM, without, engine []float64
	for rep := 0; rep < replayReps; rep++ {
		withM = append(withM, replayRouter(build(true), rec, 0))
		without = append(without, replayRouter(build(false), rec, 0))
		engine = append(engine, replayEngine(build(false).Registry(), rec, 0))
	}
	out := map[string]metric{}
	a, b := median(withM), median(without)
	out["router.handle_ns"] = metric{a, "ns"}
	out["router.handle_nil_ns"] = metric{b, "ns"}
	out["engine.process_ns"] = metric{median(engine), "ns"}
	out["telemetry.overhead_ns"] = metric{a - b, "ns"}
	out["telemetry.overhead_ratio"] = metric{a / b, "ratio"}
	state := dip.NewNodeState()
	for r := 0; r < wireRoutes; r++ {
		_ = state.FIB32.AddUint32(uint32(10)<<24|uint32(r)<<8, 24, dip.NextHop{Port: 1})
	}
	dsts := make([]uint32, len(w.tmpl))
	for i, t := range w.tmpl {
		v, _ := dip.ParsePacket(t)
		l := v.Locations()
		dsts[i] = uint32(l[0])<<24 | uint32(l[1])<<16 | uint32(l[2])<<8 | uint32(l[3])
	}
	out["fib.lookup_ns"] = metric{timeLoop(len(dsts), func(i int) { state.FIB32.LookupUint32(dsts[w.stream[i]]) }), "ns"}
	out["guard.classify_ns"] = metric{timeLoop(len(rec), func(i int) { guard.Classify(rec[i].pkt) }), "ns"}
	return out
}
