package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dip"
	"dip/internal/router"
	"dip/internal/telemetry"
)

// The in-process workloads drive dip.NewRouter + ServeGuarded{Workers: 1}
// from one generator goroutine, locked to its own OS thread, which paces
// interests, answers the interests the router forwards to the producer port
// and, in its idle time, verifies deferred outputs. The router's single
// forwarder is the other busy thread. Ports 0..7 are consumer faces, port 8
// the producer.
const (
	// consumerPorts is how many consumer faces there are. The generator
	// never has two interests for one name outstanding on the same face:
	// PIT aggregation then replicates one data packet to every waiting face
	// and each interest is owed exactly one data packet. A unit that finds
	// all eight faces busy for its name waits (its latency still counts
	// from its due time). Eight is pit.MaxPortsPerEntry.
	consumerPorts = 8
	producerPort  = consumerPorts
	// inprocQueue deepens the ingress rings beyond diprouter's default 256
	// so that a stall of the forwarder's CPU (VM steal, hundreds of
	// milliseconds at worst) queues packets at the reference rate instead
	// of shedding them: a shed data packet makes its name unreachable (see
	// the fresh-stack comment in runInproc).
	inprocQueue = 16384
	// trialWarm is the untimed warm-up of each rate-search trial on its
	// fresh stack.
	trialWarm   = 100 * time.Millisecond
	inprocBurst = 32
)

// inprocApp is what distinguishes the in-process workloads.
type inprocApp interface {
	// build constructs the system under test (not yet serving) with the
	// given ports attached in order: consumer faces, then the producer.
	// The variant selects its recorders; the workload runs variantFull.
	build(ports []dip.Port, clock func() time.Duration, v variant) (*stackParts, error)
	// slots is the size of the dense outstanding-interest index.
	slots() int
	// name is unit seq's content name.
	name(seq uint64) uint32
	// interest returns unit seq's interest packet (a fresh buffer) and its
	// name.
	interest(seq uint64) ([]byte, uint32)
	// slot maps a name onto the outstanding-interest index.
	slot(name uint32) int
	// answer builds the producer's data packet for a forwarded interest.
	answer(name uint32) []byte
	// forwardedOK checks an interest that reached the producer port.
	forwardedOK(pkt []byte) (uint32, bool)
	// dataOK is the consumer-side oracle for data that reached the
	// consumer port, run on the forwarder (inline) or by the generator
	// (deferred). It returns the data's name.
	dataOK(pkt []byte) (uint32, bool)
	// deferCheck reports whether dataOK is expensive enough to be moved
	// off the forwarder into the generator's idle time.
	deferCheck() bool
	digest() uint64
}

// stackParts is one built system under test.
type stackParts struct {
	r        *dip.Router
	state    *dip.NodeState
	metrics  *telemetry.Metrics
	tracer   *dip.TraceRecorder  // secure-int only
	journeys *dip.JourneyEmitter // secure-int only
	in       *router.Ingress
}

// harness owns the generator state shared with the port callbacks.
type harness struct {
	app   inprocApp
	clock func() time.Duration
	start time.Time

	mu sync.Mutex
	// owner[name slot·consumerPorts + face] is the unit outstanding on
	// that face for that name, -1 when the face is free for it.
	owner   []int32
	units   *inprocPhase
	answers []uint32 // names the producer has to answer
	ansBuf  []uint32
	// nAnswers and nChecks count queued producer answers and deferred
	// checks, so the generator's polling loop reads an atomic instead of
	// taking mu.
	nAnswers atomic.Int64
	nChecks  atomic.Int64
	// freedSlots lists the name slots whose face a delivery released, for
	// the generator to retry units blocked on them; nFreed mirrors its
	// length so the polling loop reads an atomic instead of taking mu.
	freedSlots []int
	nFreed     atomic.Int64
	checks     [][]byte // deferred oracle work (copies of consumer data)
	free       [][]byte
	probe      bool
	// tr is the traced phase's span and sample store; tracing mirrors
	// tr != nil for the callbacks' lock-free fast path.
	tr      *phaseTrace
	tracing atomic.Bool
}

// inprocPhase is one open-loop phase's unit bookkeeping.
type inprocPhase struct {
	base    uint64
	p       *pacer
	got     []uint8
	latNs   []float32 // per unit, valid where got is set
	lat     *samples
	wrong   int
	dup     int
	ndeliv  int
	lastArr int64
}

const maxDeferred = 16384

func newHarness(app inprocApp) *harness {
	h := &harness{app: app, start: time.Now()}
	h.clock = func() time.Duration { return time.Since(h.start) }
	h.owner = make([]int32, app.slots()*consumerPorts)
	for i := range h.owner {
		h.owner[i] = -1
	}
	return h
}

// consumerFace returns consumer face port's Send.
func (h *harness) consumerFace(port int) dip.PortFunc {
	return func(pkt []byte) { h.consumer(port, pkt) }
}

// consumer receives data arriving on a consumer face for outstanding
// interests.
func (h *harness) consumer(port int, pkt []byte) {
	if h.tracing.Load() {
		t0 := mono()
		h.consume(port, pkt)
		h.traceCallback(pkt, t0, "egress.consumer")
		return
	}
	h.consume(port, pkt)
}

func (h *harness) consume(port int, pkt []byte) {
	now := mono()
	if h.app.deferCheck() {
		h.mu.Lock()
		if !h.probe && len(h.checks) < maxDeferred {
			var cp []byte
			if n := len(h.free); n > 0 {
				cp, h.free = h.free[n-1][:0], h.free[:n-1]
			}
			cp = append(cp, pkt...)
			h.checks = append(h.checks, cp)
			h.nChecks.Add(1)
			name, _ := dip.DataName(pkt)
			h.satisfyLocked(name, port, now, true)
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
	}
	name, ok := h.app.dataOK(pkt)
	h.mu.Lock()
	h.satisfyLocked(name, port, now, ok)
	h.mu.Unlock()
}

func (h *harness) satisfyLocked(name uint32, port int, now int64, ok bool) {
	if h.probe {
		h.probe = !ok // set-up ends at the first correct probe output
		return
	}
	t := h.units
	if t == nil {
		return // a straggler between phases
	}
	if !ok {
		t.wrong++
		return
	}
	key := h.app.slot(name)*consumerPorts + port
	u := h.owner[key]
	if u < 0 {
		t.dup++ // nothing outstanding: a repeated or unsolicited delivery
		return
	}
	h.owner[key] = -1
	h.freedSlots = append(h.freedSlots, key/consumerPorts)
	h.nFreed.Add(1)
	t.got[u] = 1
	t.ndeliv++
	l := now - t.p.due(int(u))
	t.lat.add(l)
	t.latNs[u] = float32(l)
	t.lastArr = now
}

// producer is the producer port: interests the router forwarded upstream.
func (h *harness) producer(pkt []byte) {
	if h.tracing.Load() {
		t0 := mono()
		h.produce(pkt)
		h.traceCallback(pkt, t0, "egress.producer")
		return
	}
	h.produce(pkt)
}

func (h *harness) produce(pkt []byte) {
	name, ok := h.app.forwardedOK(pkt)
	h.mu.Lock()
	if ok {
		h.answers = append(h.answers, name)
		h.nAnswers.Add(1)
	} else if h.units != nil {
		h.units.wrong++
	}
	h.mu.Unlock()
}

// serveAnswers submits data for every pending producer answer, returning
// how many it sent.
func (h *harness) serveAnswers(in *router.Ingress, burst [][]byte) int {
	if h.nAnswers.Load() == 0 {
		return 0
	}
	h.mu.Lock()
	names := h.answers
	h.answers, h.ansBuf = h.ansBuf[:0], names
	h.nAnswers.Add(-int64(len(names)))
	h.mu.Unlock()
	sent := 0
	for len(names) > 0 {
		k := min(len(names), inprocBurst)
		burst = burst[:0]
		for _, n := range names[:k] {
			burst = append(burst, h.app.answer(n))
		}
		h.submit(in, burst, producerPort)
		names = names[k:]
		sent += k
	}
	return sent
}

// verifyDeferred runs up to max deferred oracle checks.
func (h *harness) verifyDeferred(max int) int {
	done := 0
	for done < max && h.nChecks.Load() > 0 {
		h.mu.Lock()
		n := len(h.checks)
		if n == 0 {
			h.mu.Unlock()
			return done
		}
		pkt := h.checks[n-1]
		h.checks = h.checks[:n-1]
		h.nChecks.Add(-1)
		h.mu.Unlock()
		_, ok := h.app.dataOK(pkt)
		h.mu.Lock()
		if !ok && h.units != nil {
			h.units.wrong++
		}
		h.free = append(h.free, pkt)
		h.mu.Unlock()
		done++
	}
	return done
}

// phase offers rate units/s for d from the calling goroutine, which must
// hold its OS thread, then drains.
func (h *harness) phase(sp *stackParts, rate float64, d time.Duration, lat, late *samples, seq *uint64) trialResult {
	st := startSteal()
	p := newPacer(rate, d, late)
	t := &inprocPhase{base: *seq, p: p, got: make([]uint8, p.n), latNs: make([]float32, p.n), lat: lat}
	*seq += uint64(p.n)
	h.mu.Lock()
	h.units = t
	h.mu.Unlock()

	burst := make([][]byte, 0, inprocBurst)
	w := newWaitQueues()
	for !p.done() || (w.n > 0 && mono()-p.due(p.n-1) < int64(2*time.Second)) {
		if h.serveAnswers(sp.in, burst) > 0 {
			continue
		}
		now := mono()
		if h.tr != nil && now >= h.tr.nextSample {
			h.tr.sample(sp, now)
		}
		k := p.take(now, inprocBurst)
		for i := p.next - k; i < p.next; i++ {
			w.cands = append(w.cands, int32(i))
		}
		h.retryBlocked(w)
		if len(w.cands) > 0 {
			h.place(sp, t, w, burst)
			continue
		}
		if p.due(p.next)-now > int64(3*time.Microsecond) {
			h.verifyDeferred(1)
		}
	}
	lastSend := mono()
	for {
		n := h.serveAnswers(sp.in, burst) + h.verifyDeferred(64)
		if w.n > 0 && mono()-lastSend < int64(2*time.Second) {
			h.retryBlocked(w)
			if len(w.cands) > 0 {
				h.place(sp, t, w, burst)
				n++
			}
		}
		h.mu.Lock()
		all := t.ndeliv >= p.n && len(h.checks) == 0
		quiet := mono()-max(t.lastArr, lastSend) > int64(30*time.Millisecond)
		h.mu.Unlock()
		if n == 0 && (all || quiet || mono()-lastSend > int64(2*time.Second)) {
			break
		}
	}
	h.mu.Lock()
	h.units = nil
	for i := range h.owner {
		h.owner[i] = -1
	}
	h.freedSlots = h.freedSlots[:0]
	h.nFreed.Store(0)
	h.mu.Unlock()
	r := trialResult{offered: p.offered(), sent: p.n, delivered: t.ndeliv, wrong: t.wrong, dup: t.dup,
		steal: st.share(), pacer: p, got: t.got, latNs: t.latNs}
	r.judge(t.got, t.latNs)
	return r
}

// waitQueues holds the units that found every face busy for their name,
// per name slot in due order, plus the candidates the next place call
// takes: newly due units and the heads of queues whose face came free.
// The generator owns it.
type waitQueues struct {
	bySlot map[int][]int32
	n      int
	cands  []int32
	retry  []bool // cands[i] came from a queue head
}

func newWaitQueues() *waitQueues { return &waitQueues{bySlot: map[int][]int32{}} }

func (w *waitQueues) push(slot int, u int32, front bool) {
	q := w.bySlot[slot]
	if front {
		q = append([]int32{u}, q...)
	} else {
		q = append(q, u)
	}
	w.bySlot[slot] = q
	w.n++
}

func (w *waitQueues) popHead(slot int) (int32, bool) {
	q := w.bySlot[slot]
	if len(q) == 0 {
		return 0, false
	}
	if len(q) == 1 {
		delete(w.bySlot, slot)
	} else {
		w.bySlot[slot] = q[1:]
	}
	w.n--
	return q[0], true
}

// retryBlocked adds to the candidates the head unit of every queue whose
// name had a face released. A unit whose faces never come free (the data
// for them was lost) stays unsent and counts as lost when the phase ends.
func (h *harness) retryBlocked(w *waitQueues) {
	for len(w.retry) < len(w.cands) {
		w.retry = append(w.retry, false)
	}
	if w.n == 0 {
		if h.nFreed.Load() > 0 {
			h.mu.Lock()
			h.freedSlots = h.freedSlots[:0]
			h.nFreed.Store(0)
			h.mu.Unlock()
		}
		return
	}
	var slots []int
	if h.nFreed.Load() > 0 {
		h.mu.Lock()
		slots = append(slots, h.freedSlots...)
		h.freedSlots = h.freedSlots[:0]
		h.nFreed.Store(0)
		h.mu.Unlock()
	}
	for _, s := range slots {
		if u, ok := w.popHead(s); ok {
			w.cands = append(w.cands, u)
			w.retry = append(w.retry, true)
		}
	}
}

// place puts the candidate units on free faces and submits their interests
// (one SubmitBurst per run of the same face); a unit that finds every face
// busy for its name joins that name's wait queue.
func (h *harness) place(sp *stackParts, t *inprocPhase, w *waitQueues, burst [][]byte) {
	for len(w.retry) < len(w.cands) {
		w.retry = append(w.retry, false)
	}
	for off := 0; off < len(w.cands); off += inprocBurst {
		n := min(len(w.cands)-off, inprocBurst)
		var faces [inprocBurst]int
		var units [inprocBurst]int32
		placed := 0
		h.mu.Lock()
		for i, u := range w.cands[off : off+n] {
			slot := h.app.slot(h.app.name(t.base + uint64(u)))
			base := slot * consumerPorts
			face := -1
			for f := 0; f < consumerPorts; f++ {
				if h.owner[base+f] < 0 {
					face = f
					break
				}
			}
			if face < 0 {
				w.push(slot, u, w.retry[off+i])
				continue
			}
			h.owner[base+face] = u
			faces[placed], units[placed] = face, u
			placed++
		}
		h.mu.Unlock()
		burst = burst[:0]
		for i := 0; i < placed; i++ {
			pkt, _ := h.app.interest(t.base + uint64(units[i]))
			burst = append(burst, pkt)
		}
		for j := 0; j < placed; {
			e := j + 1
			for e < placed && faces[e] == faces[j] {
				e++
			}
			h.submit(sp.in, burst[j:e], faces[j])
			j = e
		}
	}
	w.cands, w.retry = w.cands[:0], w.retry[:0]
}

// probe pushes one interest through a freshly built stack and returns once
// its data has come back correct.
func (h *harness) probeOnce(sp *stackParts, seq uint64) error {
	h.mu.Lock()
	h.probe = true
	h.mu.Unlock()
	pkt, _ := h.app.interest(seq)
	if !sp.in.Submit(pkt, 0) {
		return errors.New("probe interest refused")
	}
	burst := make([][]byte, 0, inprocBurst)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.serveAnswers(sp.in, burst)
		h.mu.Lock()
		done := !h.probe
		h.mu.Unlock()
		if done {
			return nil
		}
	}
	return errors.New("probe got no data within 5s")
}

// variant selects the recorders a stack is built with. Traced runs replay
// the recorded input through each to split the router's cost.
type variant int

const (
	variantFull     variant = iota // as the workload runs
	variantMetrics                 // always-on telemetry.Metrics only
	variantTrace                   // Metrics + the trace sampler
	variantNil                     // no recorder at all
	variantNilNoTel                // no recorder and no F_tel module
)

// ports returns the live ports: the consumer faces, then the producer.
func (h *harness) ports() []dip.Port {
	ps := make([]dip.Port, 0, consumerPorts+1)
	for f := 0; f < consumerPorts; f++ {
		ps = append(ps, h.consumerFace(f))
	}
	return append(ps, dip.PortFunc(h.producer))
}

// newStack builds the app's router and starts serving.
func (h *harness) newStack() (*stackParts, error) {
	sp, err := h.app.build(h.ports(), h.clock, variantFull)
	if err != nil {
		return nil, err
	}
	sp.in = sp.r.ServeGuarded(dip.ServeConfig{
		Workers:   1,
		HighDepth: inprocQueue,
		LowDepth:  inprocQueue,
		Clock:     h.clock,
	})
	return sp, nil
}

// newNodeState is the serving stack both in-process workloads share: the
// default PIT and a content store of csCap entries.
func newNodeState(csCap int) *dip.NodeState {
	return dip.NewNodeState().EnableCache(csCap)
}

// inprocSetups is how many times each run builds the stack; setup_s is the
// median.
const inprocSetups = 101

func runInproc(cfg runConfig, spec workloadSpec, app inprocApp) (*result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	genTid := syscall.Gettid()
	h := newHarness(app)
	res := &result{digest: app.digest()}
	seq := uint64(1) << 40 // probe units live below, measured units above
	var sp *stackParts
	for i := 0; i < inprocSetups; i++ {
		if sp != nil {
			sp.in.Close()
		}
		// Start each set-up from a collected heap, as a fresh process
		// would, so the previous stack's garbage is not billed to it.
		runtime.GC()
		t0 := mono()
		var err error
		if sp, err = h.newStack(); err != nil {
			return nil, err
		}
		if err := h.probeOnce(sp, uint64(i)); err != nil {
			sp.in.Close()
			return nil, err
		}
		res.setup = append(res.setup, float64(mono()-t0)/1e9)
	}
	defer func() {
		if sp != nil {
			sp.in.Close()
		}
	}()

	h.phase(sp, spec.refRate, secs(spec.warmSeconds(cfg.seconds)), newSamples(0), newSamples(0), &seq)
	if cfg.traced {
		return res, tracedInproc(cfg, spec, h, sp, genTid, &seq, res)
	}
	d := secs(spec.refSeconds(cfg.seconds))
	n := int(spec.refRate * d.Seconds())
	lat, late := newSamples(n), newSamples(n)
	stop := make(chan struct{})
	wins := sampleWindows(func() (int64, error) {
		proc, gen, err := sutCPU(genTid)
		return proc - gen, err
	}, spec.refRate, d/refWindows, stop)
	res.ref = h.phase(sp, spec.refRate, d, lat, late, &seq)
	close(stop)
	fillReference(res, res.ref, lat, late, <-wins)
	var err error
	if res.rssMB, err = vmHWM(syscall.Getpid()); err != nil {
		return nil, err
	}
	// Every trial gets a fresh stack: a trial that overloads the router can
	// leave PIT entries whose data was shed, and the PIT keeps refreshing
	// such an entry while interests for its name keep aggregating onto it,
	// so the name would stay unreachable in every later trial.
	var trialErr error
	res.search = findMaxRate(spec.search(), func(rate float64, d time.Duration) trialResult {
		if trialErr != nil {
			return trialResult{}
		}
		sp.in.Close()
		if sp, trialErr = h.newStack(); trialErr != nil {
			return trialResult{}
		}
		h.phase(sp, rate, trialWarm, newSamples(0), newSamples(0), &seq)
		n := int(rate * d.Seconds())
		return h.phase(sp, rate, d, newSamples(n), newSamples(n), &seq)
	})
	if trialErr != nil {
		return nil, trialErr
	}
	res.maxRate, res.confirmed = res.search.maxRate, res.search.confirmed
	return res, nil
}

// sutCPU reads the process's CPU time and the generator thread's: the
// system under test's share is the difference (forwarder, port callbacks,
// garbage collector and the rest of the runtime).
func sutCPU(genTid int) (proc, gen int64, err error) {
	pid := syscall.Getpid()
	if proc, err = processCPU(pid); err != nil {
		return 0, 0, err
	}
	gen, err = threadCPU(pid, genTid)
	return proc, gen, err
}
