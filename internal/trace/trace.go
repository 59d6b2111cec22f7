// Package trace records sampled per-packet FN journeys — the "what
// happened to this packet" half of the paper's efficient-network-telemetry
// opportunity (§5) that aggregate counters cannot answer. Because every
// protocol in DIP decomposes into the same FN primitive, one instrumentation
// point inside the engine sees IPv4 forwarding, NDN interest aggregation and
// OPT validation alike: a trace record is the ordered list of FN keys the
// packet executed, each with its latency, plus the verdict, drop reason,
// chosen egress ports, and a prefix of the packet bytes for offline
// dissection (dipdump).
//
// The design constraint is the PR-3 zero-alloc forwarding baseline: tracing
// must ride the hot path without serializing or allocating on it.
//
//   - Sampling is 1-in-N on striped, cache-line-padded counters (selected by
//     the execution context's address, a stable per-worker value for pooled
//     contexts), so concurrent forwarding goroutines do not contend on one
//     atomic. The unsampled path is one counter increment and a comparison.
//   - Sampled packets write in place into a fixed-size ring of preallocated
//     records guarded by per-slot sequence locks: a writer bumps the slot's
//     version to odd, fills it, and bumps it to even; readers copy and
//     retry/skip on version change. No mutexes, no heap traffic, ever.
//   - Ring overwrite is the drop policy: the newest MaxInFlight packets win,
//     and the Overwritten counter makes the loss observable (exported as
//     dip_trace_overwritten_total).
//
// The ring must be comfortably larger than the number of concurrently
// sampled packets (workers / N per tick); with the default 1024 slots and
// 1-in-N sampling this holds by orders of magnitude.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"dip/internal/core"
)

// MaxSteps bounds the FN steps retained per record; packets executing more
// (the wire allows up to 255) keep the first MaxSteps and count the rest in
// Truncated.
const MaxSteps = 32

// CaptureBytes is the packet prefix captured per record — enough for the
// basic header, a realistic FN list and the locations region, so dipdump
// can dissect the journey's packet offline.
const CaptureBytes = 96

// DefaultRing is the ring size used when NewRecorder is given n < 1.
const DefaultRing = 1024

// DefaultEvery is the sampling divisor used when NewRecorder is given
// every < 1.
const DefaultEvery = 1024

// Step is one executed FN inside a sampled packet's journey.
type Step struct {
	Key core.Key
	Ns  int64
}

// Record is one sampled packet's journey. Egress mirrors the context's
// replication bound (maxEgress = 8).
type Record struct {
	// Seq is the global sample sequence number (dense, starts at 0). It is
	// this recorder's monotonic capture sequence: records from one router
	// always sort correctly by Seq regardless of clock quality.
	Seq uint64
	// At is the capture timestamp on the recorder's clock: wall nanoseconds
	// by default, or the shared virtual clock when SetClock installs one.
	// Stitching records from several routers sorts by (At, Seq); with a
	// shared clock that order is exact even when the routers' wall clocks
	// diverge, which per-router wall stamps cannot guarantee.
	At int64
	// InPort is the ingress port the packet arrived on.
	InPort int32
	// Verdict and Reason are the packet's final fate.
	Verdict core.Verdict
	Reason  core.DropReason
	// Steps[:NSteps] are the FNs executed, in order for sequential
	// processing; parallel-wave steps appear in completion order.
	Steps  [MaxSteps]Step
	NSteps uint8
	// Truncated counts steps beyond MaxSteps that were executed but not
	// retained.
	Truncated uint8
	// Egress[:NEgr] are the chosen output ports.
	Egress [8]int32
	NEgr   uint8
	// TotalNs is the wall-clock begin→end bracket around Algorithm 1.
	TotalNs int64
	// Pkt[:PktLen] is the captured packet prefix; PktTotal is the full
	// packet length on the wire.
	Pkt      [CaptureBytes]byte
	PktLen   uint8
	PktTotal uint16
}

// slot is one ring entry: a record plus its sequence lock and the atomic
// step cursor writers claim slots in (parallel waves execute FNs of one
// packet concurrently).
type slot struct {
	ver   atomic.Uint64 // odd = being written
	steps atomic.Int32  // claimed step count (may exceed MaxSteps)
	start int64         // begin bracket, ns since an arbitrary epoch
	rec   Record
}

// Step implements core.TraceSink.
func (s *slot) Step(k core.Key, d time.Duration) {
	i := s.steps.Add(1) - 1
	if int(i) < MaxSteps {
		s.rec.Steps[i] = Step{Key: k, Ns: d.Nanoseconds()}
	}
}

// stripes is the sampling-counter stripe count (power of two). Contexts
// hash onto stripes by address; pooled contexts keep their address for
// their lifetime, so a steady worker set spreads stably.
const stripes = 16

type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte // pad to a cache line so stripes do not false-share
}

// Recorder samples 1-in-every packets into a lock-free ring and forwards
// all aggregate telemetry to the wrapped inner recorder (typically a
// *telemetry.Metrics). It implements core.PacketRecorder; install it with
// Engine.SetRecorder (or router.Config.Trace).
type Recorder struct {
	inner   core.Recorder
	every   uint64
	mask    uint64
	slots   []slot
	seq     atomic.Uint64 // next sample sequence number
	counter [stripes]paddedCounter
	// clock stamps Record.At; nil means wall time. Set before traffic flows
	// (SetClock), so the hot path reads it without synchronization.
	clock func() int64
}

// NewRecorder builds a sampling trace recorder: every-th packet is traced
// (1 traces everything), ring is the record capacity (rounded up to a power
// of two; < 1 uses DefaultRing). inner, when non-nil, receives every
// RecordOp/RecordDrop exactly as if it were installed directly.
func NewRecorder(inner core.Recorder, every int, ring int) *Recorder {
	if every < 1 {
		every = DefaultEvery
	}
	if ring < 1 {
		ring = DefaultRing
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	return &Recorder{
		inner: inner,
		every: uint64(every),
		mask:  uint64(size - 1),
		slots: make([]slot, size),
	}
}

// SetClock installs the capture-timestamp source (nanoseconds on any
// monotonic scale — a netsim Simulator's virtual clock in simulations, so
// records from every router in one run share one time base). Must be called
// before packets flow; nil restores wall time. TotalNs stays a wall-clock
// measurement either way: At orders records, TotalNs meters the engine.
func (r *Recorder) SetClock(clock func() int64) { r.clock = clock }

func (r *Recorder) nowStamp() int64 {
	if r.clock != nil {
		return r.clock()
	}
	return time.Now().UnixNano()
}

// RecordOp implements core.Recorder by forwarding to the inner recorder.
func (r *Recorder) RecordOp(k core.Key, d time.Duration) {
	if r.inner != nil {
		r.inner.RecordOp(k, d)
	}
}

// RecordDrop implements core.Recorder by forwarding to the inner recorder.
func (r *Recorder) RecordDrop(reason core.DropReason) {
	if r.inner != nil {
		r.inner.RecordDrop(reason)
	}
}

// BeginPacket implements core.PacketRecorder: it decides whether this
// packet is sampled and, if so, claims a ring slot and attaches it to the
// context. Allocation-free on both paths. A burst dataplane that already
// took the decision (core.BurstPlan) stamps it on ctx.Sample: Skip returns
// immediately and Force claims a slot without touching the counters — the
// plan accounted the whole burst in BeginBurst.
func (r *Recorder) BeginPacket(ctx *core.ExecContext) {
	switch ctx.Sample {
	case core.SampleSkip:
		return
	case core.SampleForce:
		// decision and counter accounting already done by the burst plan
	default:
		// Stripe by context address: pooled contexts are worker-stable, so
		// this approximates a per-CPU counter without runtime hooks. The
		// conversion is used purely as an integer hash; the pointer is never
		// reconstructed.
		s := uintptr(unsafe.Pointer(ctx)) >> 4 & (stripes - 1)
		if r.counter[s].n.Add(1)%r.every != 0 {
			return
		}
	}
	seq := r.seq.Add(1) - 1
	sl := &r.slots[seq&r.mask]
	// Claim the slot by making its version odd (under construction). The
	// ring can lap a packet that is still being traced (a slow writer
	// holding the same slot); writing under it would tear its record, so
	// this sample is lost to the ring like an overwritten one.
	if v := sl.ver.Load(); v%2 != 0 || !sl.ver.CompareAndSwap(v, v+1) {
		return
	}
	sl.steps.Store(0)
	sl.start = time.Now().UnixNano()
	sl.rec = Record{Seq: seq, At: r.nowStamp(), InPort: int32(ctx.InPort)}
	pkt := ctx.View.Packet()
	sl.rec.PktTotal = uint16(min(len(pkt), 1<<16-1))
	n := copy(sl.rec.Pkt[:], pkt)
	sl.rec.PktLen = uint8(n)
	ctx.Trace = sl
}

// EndPacket implements core.PacketRecorder: it seals the sampled record (a
// no-op for unsampled packets).
func (r *Recorder) EndPacket(ctx *core.ExecContext) {
	sl, ok := ctx.Trace.(*slot)
	if !ok || sl == nil {
		return
	}
	ctx.Trace = nil
	sl.rec.TotalNs = time.Now().UnixNano() - sl.start
	steps := sl.steps.Load()
	if steps > MaxSteps {
		sl.rec.NSteps = MaxSteps
		sl.rec.Truncated = uint8(min(int(steps)-MaxSteps, 255))
	} else {
		sl.rec.NSteps = uint8(steps)
	}
	sl.rec.Verdict = ctx.Verdict
	sl.rec.Reason = ctx.Reason
	ports := ctx.EgressPorts()
	sl.rec.NEgr = uint8(len(ports))
	for i, p := range ports {
		sl.rec.Egress[i] = int32(p)
	}
	sl.ver.Add(1) // even: stable
}

// NewBurstPlan implements core.BurstSampler: the returned plan lets one
// forwarding goroutine take the 1-in-every decision with plain local
// arithmetic, charging the shared stripe counters once per burst instead
// of once per packet. The plan preserves the exact sampling rate — every
// forwarder traces precisely its every-th packet — it only amortizes the
// accounting.
func (r *Recorder) NewBurstPlan() core.BurstPlan {
	return &burstPlan{r: r, countdown: r.every}
}

// burstPlan is one forwarder's private sampling state. Not safe for
// concurrent use (by contract each forwarder owns its plan).
type burstPlan struct {
	r         *Recorder
	countdown uint64
}

// BeginBurst accounts n observed packets against one stripe in a single
// atomic add, keeping Seen() monotone and rate-accurate. The stripe is
// chosen by the plan's address — stable for the plan's lifetime, so each
// forwarder keeps hitting its own cache line.
func (p *burstPlan) BeginBurst(n int) {
	if n <= 0 {
		return
	}
	s := uintptr(unsafe.Pointer(p)) >> 4 & (stripes - 1)
	p.r.counter[s].n.Add(uint64(n))
}

// Hint returns the pre-made decision for the next packet: SampleForce on
// every every-th packet this forwarder processes, SampleSkip otherwise.
func (p *burstPlan) Hint() core.SampleHint {
	p.countdown--
	if p.countdown == 0 {
		p.countdown = p.r.every
		return core.SampleForce
	}
	return core.SampleSkip
}

// Sampled returns how many packets have been traced so far.
func (r *Recorder) Sampled() uint64 { return r.seq.Load() }

// Seen returns how many packets passed the sampling decision (traced or
// not). It sums the stripe counters, so concurrent readings are
// approximate but monotone.
func (r *Recorder) Seen() uint64 {
	var n uint64
	for i := range r.counter {
		n += r.counter[i].n.Load()
	}
	return n
}

// Overwritten returns how many sampled records have been lost to ring
// wrap-around.
func (r *Recorder) Overwritten() uint64 {
	if s, size := r.seq.Load(), uint64(len(r.slots)); s > size {
		return s - size
	}
	return 0
}

// RingSize returns the ring capacity in records.
func (r *Recorder) RingSize() int { return len(r.slots) }

// SampleEvery returns the sampling divisor N (1-in-N).
func (r *Recorder) SampleEvery() int { return int(r.every) }

// Snapshot copies out the stable records currently in the ring, oldest
// first. Records being written concurrently are skipped (they will be
// complete by the next call); torn reads are prevented by the per-slot
// sequence locks.
func (r *Recorder) Snapshot() []Record {
	seq := r.seq.Load()
	size := uint64(len(r.slots))
	first := uint64(0)
	if seq > size {
		first = seq - size
	}
	out := make([]Record, 0, seq-first)
	for s := first; s < seq; s++ {
		sl := &r.slots[s&r.mask]
		for attempt := 0; attempt < 3; attempt++ {
			v1 := sl.ver.Load()
			if v1%2 != 0 {
				continue // mid-write; retry
			}
			rec := sl.rec
			if sl.ver.Load() != v1 {
				continue // overwritten underneath us; retry
			}
			// The slot may have been reused for a newer sequence number
			// while we walked; only keep the record we came for.
			if rec.Seq == s {
				out = append(out, rec)
			}
			break
		}
	}
	return out
}

// String renders the record as dipdump-ready text: one '#'-prefixed
// metadata line (echoed by dipdump and pretty-printed when recognized)
// followed by the hex of the captured packet prefix, which dipdump
// dissects like any capture.
func (rec Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# trace seq=%d at=%d in=%d verdict=%s reason=%s total=%s",
		rec.Seq, rec.At, rec.InPort, rec.Verdict, rec.Reason, time.Duration(rec.TotalNs))
	if rec.NEgr > 0 {
		b.WriteString(" egress=")
		for i := uint8(0); i < rec.NEgr; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", rec.Egress[i])
		}
	}
	if rec.NSteps > 0 {
		b.WriteString(" steps=")
		for i := uint8(0); i < rec.NSteps; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", rec.Steps[i].Key, time.Duration(rec.Steps[i].Ns))
		}
	}
	if rec.Truncated > 0 {
		fmt.Fprintf(&b, " truncated=%d", rec.Truncated)
	}
	fmt.Fprintf(&b, " pktlen=%d\n", rec.PktTotal)
	for i := uint8(0); i < rec.PktLen; i++ {
		fmt.Fprintf(&b, "%02x", rec.Pkt[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// Dump writes every stable record in the ring to w in dipdump-ready form:
// pipe it into dipdump to dissect each sampled packet alongside its
// journey metadata.
func (r *Recorder) Dump(w io.Writer) error {
	for _, rec := range r.Snapshot() {
		if _, err := io.WriteString(w, rec.String()); err != nil {
			return err
		}
	}
	return nil
}
