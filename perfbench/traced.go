package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dip"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/guard"
	"dip/internal/opt"
	"dip/internal/router"
)

// Traced runs record spans from the benchmark's own code around the calls
// into the router (SubmitBurst on the generator, the egress Port.Send
// callbacks on the forwarder), keep them in memory and write them out when
// the run ends. The recorded input stream is then replayed through
// HandlePacket and core.Engine.Process under different recorders, and the
// fib, pit, cs and opt layers are called directly on the same keys.

const (
	sojournEvery = 16     // submit→egress sojourn is sampled on 1 in 16 packets
	recordCap    = 30000  // packets recorded for the replay
	spanCap      = 200000 // spans kept in memory
	replayPrime  = 0.3    // share of the recording replayed untimed first
	replayReps   = 3      // replay repetitions per variant (median taken)
)

// span is one timed call at a layer boundary. Submit spans cover a burst;
// an egress span's parent is the submit span of the packet it carries when
// that packet was one of the sampled ones (0 otherwise).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // packets covered (bursts)
}

// submitMark is a sampled packet's submit time and burst span.
type submitMark struct {
	at   int64
	span uint64
}

type recPacket struct {
	pkt  []byte
	port int
}

// phaseTrace is the traced phase's in-memory store. The generator owns
// the fields above mu without locking; the callbacks (on the forwarder)
// and the generator share the fields below it under mu, which the
// generator holds only to note a sampled packet's submit time.
type phaseTrace struct {
	genSpans   []span
	bursts     uint64
	submitNs   int64
	submitted  int64
	seen       int64
	rec        []recPacket
	depthMax   int
	pitPeak    int
	nextSample int64

	mu       sync.Mutex
	submitAt map[*byte]submitMark
	cbSpans  []span
	sojourn  *samples
	cbNs     int64
	cbCalls  int64
	// Consumer deliveries, interests forwarded to the producer, and
	// deliveries that repeat the previous delivery's buffer: the router
	// sends one data packet to every face its PIT entry aggregated, so
	// each repeat is an aggregated interest.
	delivered, forwarded, repeats int64
	lastData                      *byte
}

func newPhaseTrace() *phaseTrace {
	return &phaseTrace{submitAt: map[*byte]submitMark{}, sojourn: newSamples(1 << 14)}
}

func addSpan(spans []span, s span) []span {
	if len(spans) < spanCap/2 {
		spans = append(spans, s)
	}
	return spans
}

// sample polls the guard's queue depth and the PIT size once a millisecond.
func (t *phaseTrace) sample(sp *stackParts, now int64) {
	t.nextSample = now + int64(time.Millisecond)
	if hl, ok := sp.r.Health(); ok {
		t.depthMax = max(t.depthMax, hl.HighDepth+hl.LowDepth)
	}
	t.pitPeak = max(t.pitPeak, sp.state.PIT.Len())
}

// submit hands a burst to the ingress, recording spans and the input stream
// when the phase is traced.
func (h *harness) submit(in *router.Ingress, pkts [][]byte, port int) {
	tr := h.tr
	if tr == nil {
		in.SubmitBurst(pkts, port)
		return
	}
	for _, p := range pkts {
		if len(tr.rec) < recordCap {
			tr.rec = append(tr.rec, recPacket{pkt: append([]byte(nil), p...), port: port})
		}
	}
	tr.bursts++
	ts := mono()
	for _, p := range pkts {
		tr.seen++
		if tr.seen%sojournEvery == 0 {
			tr.mu.Lock()
			tr.submitAt[&p[0]] = submitMark{at: ts, span: tr.bursts}
			tr.mu.Unlock()
		}
	}
	in.SubmitBurst(pkts, port)
	te := mono()
	tr.submitNs += te - ts
	tr.submitted += int64(len(pkts))
	tr.genSpans = addSpan(tr.genSpans, span{ID: tr.bursts, Name: "ingress.submit", Start: ts, End: te, N: len(pkts)})
}

// traceCallback closes a port-callback span and the sojourn of a sampled
// packet (submit → egress, matched by buffer identity: the router sends
// forwarded packets in the very buffer they were submitted in).
func (h *harness) traceCallback(pkt []byte, t0 int64, name string) {
	t1 := mono()
	h.mu.Lock()
	tr := h.tr
	h.mu.Unlock()
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.cbNs += t1 - t0
	tr.cbCalls++
	if name == "egress.producer" {
		tr.forwarded++
	} else if len(pkt) > 0 {
		tr.delivered++
		if &pkt[0] == tr.lastData {
			tr.repeats++
		}
		tr.lastData = &pkt[0]
	}
	var parent uint64
	if len(pkt) > 0 {
		if m, ok := tr.submitAt[&pkt[0]]; ok {
			tr.sojourn.add(t0 - m.at)
			delete(tr.submitAt, &pkt[0])
			parent = m.span
		}
	}
	// Egress span IDs live above every burst ID.
	id := uint64(1)<<62 + uint64(tr.cbCalls)
	tr.cbSpans = addSpan(tr.cbSpans, span{ID: id, Parent: parent, Name: name, Start: t0, End: t1})
}

// rtStats is a runtime/metrics snapshot.
type rtStats struct {
	allocs, bytes, cycles float64
	gcCPU, assistCPU      float64
	pauseNs               uint64
}

func readRT() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{allocs: val(0), bytes: val(1), cycles: val(2), gcCPU: val(3), assistCPU: val(4), pauseNs: ms.PauseTotalNs}
}

// tracedInproc runs the traced half of an in-process run: an untraced and
// a traced reference phase of equal length, then the replays.
func tracedInproc(cfg runConfig, spec workloadSpec, h *harness, sp *stackParts, genTid int, seq *uint64, res *result) error {
	d := secs(spec.refSeconds(cfg.seconds))
	n := int(spec.refRate * d.Seconds())

	// Untraced reference: the baseline for the tracing overhead.
	cpu0, gen0, err := sutCPU(genTid)
	if err != nil {
		return err
	}
	base := h.phase(sp, spec.refRate, d, newSamples(n), newSamples(n), seq)
	cpu1, gen1, err := sutCPU(genTid)
	if err != nil {
		return err
	}
	untraced := float64((cpu1-gen1)-(cpu0-gen0)) / float64(max(base.delivered, 1))

	// Traced reference.
	tr := newPhaseTrace()
	h.mu.Lock()
	h.tr = tr
	h.mu.Unlock()
	h.tracing.Store(true)
	lat, late := newSamples(n), newSamples(n)
	rt0 := readRT()
	m0 := sp.metrics.Snapshot()
	seen0, sampled0 := traceCounts(sp)
	spans0 := journeyCount(sp)
	sw0 := ctxSwitches(syscall.Getpid()) - threadSwitches(genTid)
	cpu0, gen0, err = sutCPU(genTid)
	if err != nil {
		return err
	}
	res.ref = h.phase(sp, spec.refRate, d, lat, late, seq)
	sw1 := ctxSwitches(syscall.Getpid()) - threadSwitches(genTid)
	cpu1, gen1, err = sutCPU(genTid)
	if err != nil {
		return err
	}
	rt1 := readRT()
	m1 := sp.metrics.Snapshot()
	seen1, sampled1 := traceCounts(sp)
	spans1 := journeyCount(sp)
	h.tracing.Store(false)
	h.mu.Lock()
	h.tr = nil
	h.mu.Unlock()
	fillReference(res, res.ref, lat, late, nil)
	units := float64(max(res.ref.delivered, 1))
	traced := float64((cpu1-gen1)-(cpu0-gen0)) / units
	res.cpuNs = traced
	tr.mu.Lock()
	spans := append(tr.genSpans, tr.cbSpans...)
	cbNsTotal, cbCalls := tr.cbNs, tr.cbCalls
	deliv, fwd, agg := float64(tr.delivered), float64(tr.forwarded), float64(tr.repeats)
	tr.mu.Unlock()
	if err := writeSpans(cfg, spans); err != nil {
		return err
	}

	L := map[string]metric{}
	add := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	handled := float64(tr.submitted)
	md := m1.Delta(m0)
	add("io.rx_ns_per_pkt", float64(tr.submitNs)/max(handled, 1), "ns")
	add("io.tx_ns_per_pkt", float64(cbNsTotal)/max(float64(cbCalls), 1), "ns")
	add("ingress.submit_ns_per_pkt", float64(tr.submitNs)/max(handled, 1), "ns")
	add("ingress.sojourn_ns", tr.sojourn.pct(0.5)*1e3, "ns")
	add("ingress.queue_depth_max", float64(tr.depthMax), "count")
	if hl, ok := sp.r.Health(); ok {
		add("ingress.shed_ratio", float64(hl.ShedLow+hl.ShedHigh)/max(float64(hl.Processed), 1), "ratio")
	}
	add("pit.entries_peak", float64(tr.pitPeak), "count")
	// Every interest is delivered exactly once (the oracle holds it), so
	// deliveries = store hits + forwarded + aggregated.
	add("cs.hit_ratio", (deliv-fwd-agg)/max(deliv, 1), "ratio")
	add("pit.aggregate_ratio", agg/max(deliv, 1), "ratio")
	add("rt.ctx_switches_per_pkt", (sw1-sw0)/units, "count")
	add("rt.allocs_per_pkt", (rt1.allocs-rt0.allocs)/handled, "count")
	add("rt.alloc_bytes_per_pkt", (rt1.bytes-rt0.bytes)/handled, "bytes")
	add("rt.gc_cycles", rt1.cycles-rt0.cycles, "count")
	add("rt.gc_pause_ns", float64(rt1.pauseNs-rt0.pauseNs), "ns")
	fns := 0.0
	for _, op := range md.Ops {
		fns += float64(op.Count)
		add(fmt.Sprintf("op.%s.ns", op.Key), float64(op.TotalNs)/float64(op.Count), "ns")
	}
	add("engine.fns_per_pkt", fns/max(float64(md.Received), 1), "count")
	if seen1 > seen0 {
		add("trace.sampled_ratio", float64(sampled1-sampled0)/float64(seen1-seen0), "ratio")
	}
	if spans1 > spans0 {
		add("journey.spans_per_pkt", float64(spans1-spans0)/float64(md.Received), "ratio")
	}
	add("gen.late_p50_us", res.genLateP50, "us")
	add("gen.late_p99_us", res.genLateP99, "us")

	rp, err := replay(h.app, h.clock, tr.rec)
	if err != nil {
		return err
	}
	for k, v := range rp {
		if _, live := L[k]; !live {
			L[k] = v
		}
	}
	gcNs := (rt1.gcCPU - rt0.gcCPU - (rt1.assistCPU - rt0.assistCPU)) * 1e9 / units
	routerNs := L["router.handle_ns"].Value * handled / units
	cbNs := float64(cbNsTotal) / units
	res.ledger = []ledgerRow{
		{"router.HandlePacket (core, ops, telemetry, views; replayed)", routerNs},
		{"port callbacks (consumer oracle, producer hand-off)", cbNs},
		{"runtime GC (background workers)", gcNs},
	}
	res.finishLedger("residual: scheduler wake-ups, ring hand-off, allocation (unattributed)", traced, untraced, L)
	res.layers = L
	return nil
}

// finishLedger appends the named residual and records the reconciliation
// and tracing-overhead metrics.
func (r *result) finishLedger(residual string, traced, untraced float64, L map[string]metric) {
	sum := 0.0
	for _, row := range r.ledger {
		sum += row.ns
	}
	r.ledger = append(r.ledger, ledgerRow{residual, traced - sum})
	L["ledger.residual_ns_per_pkt"] = metric{traced - sum, "ns"}
	L["traced_cpu_ns_per_pkt"] = metric{traced, "ns"}
	L["untraced_cpu_ns_per_pkt"] = metric{untraced, "ns"}
	L["tracing.overhead_ns_per_pkt"] = metric{traced - untraced, "ns"}
	r.tracedCPU, r.untracedCPU = traced, untraced
}

// threadSwitches reads one thread's voluntary context switches.
func threadSwitches(tid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/self/task/%d/status", tid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "voluntary_ctxt_switches:"); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}

func traceCounts(sp *stackParts) (seen, sampled uint64) {
	if sp.tracer == nil {
		return 0, 0
	}
	return sp.tracer.Seen(), sp.tracer.Sampled()
}

func journeyCount(sp *stackParts) uint64 {
	if sp.journeys == nil {
		return 0
	}
	return sp.journeys.Added()
}

func writeSpans(cfg runConfig, spans []span) error {
	f, err := os.Create(filepath.Join(cfg.outDir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countPort counts sends; the replay uses it to classify each interest.
type countPort struct{ n int }

func (c *countPort) Send([]byte) { c.n++ }

// arena copies the recorded packets into one buffer so a timed replay loop
// does no allocation or copying of its own.
func arena(rec []recPacket) [][]byte {
	total := 0
	for _, r := range rec {
		total += len(r.pkt)
	}
	buf := make([]byte, 0, total)
	out := make([][]byte, len(rec))
	for i, r := range rec {
		buf = append(buf, r.pkt...)
		out[i] = buf[len(buf)-len(r.pkt):]
	}
	return out
}

// replayRouter replays rec through r, the first prime packets untimed,
// and returns the HandlePacket cost per timed packet (ns).
func replayRouter(r *dip.Router, rec []recPacket, prime int) float64 {
	pk := arena(rec)
	for i := 0; i < prime; i++ {
		r.HandlePacket(pk[i], rec[i].port)
	}
	t0 := mono()
	for i := prime; i < len(pk); i++ {
		r.HandlePacket(pk[i], rec[i].port)
	}
	return float64(mono()-t0) / float64(max(len(pk)-prime, 1))
}

// replayEngine replays rec through a bare core.Engine (nil recorder) over
// reg — parse, hop limit, Algorithm 1, no router verdict handling — the
// first prime packets untimed, and returns the cost per timed packet (ns).
func replayEngine(reg *dip.Registry, rec []recPacket, prime int) float64 {
	eng := core.NewEngine(reg, core.Limits{})
	pk := arena(rec)
	var ctx core.ExecContext
	run := func(i int) {
		v, err := core.ParseView(pk[i])
		if err != nil || !v.DecHopLimit() {
			return
		}
		ctx.Reset(v, rec[i].port)
		eng.Process(&ctx)
	}
	for i := 0; i < prime; i++ {
		run(i)
	}
	t0 := mono()
	for i := prime; i < len(pk); i++ {
		run(i)
	}
	return float64(mono()-t0) / float64(max(len(pk)-prime, 1))
}

// replayStack builds a fresh stack of app with counting ports.
func replayStack(app inprocApp, clock func() time.Duration, v variant) (*stackParts, error) {
	ports := make([]dip.Port, consumerPorts+1)
	for i := range ports {
		ports[i] = &countPort{}
	}
	return app.build(ports, clock, v)
}

// replay measures the router-side layers on the recorded interest stream.
// A first, untimed pass runs the interests through a fresh stack with a
// producer that answers every forwarded interest at once; it yields the
// exact packet sequence — interests and answers — the timed passes replay,
// and the store hit ratio of that sequence (replay.cs.hit_ratio; the live
// figures come from the traced phase).
// The live data packets are not replayed: a fresh stack's store is colder
// than the live one, so replay would forward interests the live router
// answered from its store, and no recorded data would ever consume them.
func replay(app inprocApp, clock func() time.Duration, rec []recPacket) (map[string]metric, error) {
	out := map[string]metric{}
	var fwdNames []uint32
	cports := make([]*countPort, consumerPorts)
	dports := make([]dip.Port, consumerPorts+1)
	for i := range cports {
		cports[i] = &countPort{}
		dports[i] = cports[i]
	}
	dports[producerPort] = dip.PortFunc(func(p []byte) {
		if n, ok := dip.InterestName(p); ok {
			fwdNames = append(fwdNames, n)
		}
	})
	sp, err := app.build(dports, clock, variantNil)
	if err != nil {
		return nil, err
	}
	var seq []recPacket
	var names []uint32
	var data [][]byte
	var interests, hits, fwd float64
	for _, r := range rec {
		if r.port == producerPort {
			continue
		}
		interests++
		if n, ok := dip.InterestName(r.pkt); ok {
			names = append(names, n)
		}
		seq = append(seq, r)
		c0, f0 := cports[r.port].n, len(fwdNames)
		sp.r.HandlePacket(append([]byte(nil), r.pkt...), r.port)
		switch {
		case cports[r.port].n > c0:
			hits++
		case len(fwdNames) > f0:
			fwd++
		}
		for _, n := range fwdNames[f0:] {
			d := app.answer(n)
			seq = append(seq, recPacket{pkt: d, port: producerPort})
			data = append(data, d)
			sp.r.HandlePacket(append([]byte(nil), d...), producerPort)
		}
	}
	if interests == 0 {
		return out, nil
	}
	out["replay.cs.hit_ratio"] = metric{hits / interests, "ratio"}
	out["replay.forward_ratio"] = metric{fwd / interests, "ratio"}

	variants := []variant{variantFull, variantMetrics, variantNil}
	if _, ok := app.(*secureApp); ok {
		variants = append(variants, variantTrace, variantNilNoTel)
	}
	prime := int(float64(len(seq)) * replayPrime)
	costs := map[variant][]float64{}
	var engine []float64
	for rep := 0; rep < replayReps; rep++ {
		for _, v := range variants {
			rs, err := replayStack(app, clock, v)
			if err != nil {
				return nil, err
			}
			costs[v] = append(costs[v], replayRouter(rs.r, seq, prime))
		}
		rs, err := replayStack(app, clock, variantNil)
		if err != nil {
			return nil, err
		}
		engine = append(engine, replayEngine(rs.r.Registry(), seq, prime))
	}
	c := func(v variant) float64 { return median(costs[v]) }
	out["router.handle_ns"] = metric{c(variantFull), "ns"}
	out["router.handle_nil_ns"] = metric{c(variantNil), "ns"}
	out["engine.process_ns"] = metric{median(engine), "ns"}
	out["telemetry.overhead_ns"] = metric{c(variantMetrics) - c(variantNil), "ns"}
	out["telemetry.overhead_ratio"] = metric{c(variantMetrics) / c(variantNil), "ratio"}
	if _, ok := costs[variantTrace]; ok {
		out["trace.overhead_ns"] = metric{c(variantTrace) - c(variantMetrics), "ns"}
		out["journey.overhead_ns"] = metric{c(variantFull) - c(variantTrace), "ns"}
		out["tel.stamp_ns"] = metric{c(variantNil) - c(variantNilNoTel), "ns"}
	}

	// Direct calls into fib, cs, guard and opt on the same keys.
	pk := arena(seq)
	out["fib.lookup_ns"] = metric{timeLoop(len(names), func(i int) { sp.state.NameFIB.LookupUint32(names[i]) }), "ns"}
	out["guard.classify_ns"] = metric{timeLoop(len(pk), func(i int) { guard.Classify(pk[i]) }), "ns"}
	get, put := csCosts(seq)
	out["cs.get_ns"] = metric{get, "ns"}
	out["cs.put_ns"] = metric{put, "ns"}
	if a, ok := app.(*secureApp); ok {
		out["opt.hop_ns"] = metric{a.hopCost(data), "ns"}
	}
	return out, nil
}

// timeLoop returns the mean ns of f over i = 0..n-1, repeated until at
// least 20ms have been spent.
func timeLoop(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := mono()
	for mono()-t0 < int64(20*time.Millisecond) {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(mono()-t0) / float64(calls)
}

// csCosts replays the content-store traffic of seq on a store of the
// workloads' capacity — a Get per interest, a Put per data packet, in
// order — and returns the mean Get and Put cost (ns), each with the
// clock-read overhead subtracted.
func csCosts(seq []recPacket) (get, put float64) {
	store := cs.New[uint32](ndnCS)
	clockNs := timeLoop(1024, func(int) { mono() })
	var getNs, putNs, gets, puts float64
	for _, r := range seq {
		if r.port != producerPort {
			name, ok := dip.InterestName(r.pkt)
			if !ok {
				continue
			}
			t0 := mono()
			store.Get(name)
			getNs += float64(mono() - t0)
			gets++
			continue
		}
		v, err := core.ParseView(r.pkt)
		name, ok := dip.DataName(r.pkt)
		if err != nil || !ok {
			continue
		}
		t0 := mono()
		store.Put(name, v.Payload())
		putNs += float64(mono() - t0)
		puts++
	}
	return max(getNs/max(gets, 1)-clockNs, 0), max(putNs/max(puts, 1)-clockNs, 0)
}

// hopCost times the native OPT hop (opt.ProcessHop: parm + MAC + mark) on
// the recorded data packets' regions.
func (a *secureApp) hopCost(data [][]byte) float64 {
	if len(data) == 0 {
		return 0
	}
	regions := make([][]byte, len(data))
	for i, d := range data {
		regions[i] = append([]byte(nil), d[a.optOff:a.optOff+opt.RegionSize(1)]...)
	}
	cfg := opt.HopConfig{Secret: a.secret}
	return timeLoop(len(regions), func(i int) { _ = opt.ProcessHop(cfg, opt.Kind2EM, regions[i]) })
}
