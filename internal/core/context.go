package core

import "time"

// Verdict is the fate an operation (or the engine) assigns a packet.
type Verdict uint8

// Verdicts, in escalating precedence: a Drop always wins, a Deliver beats a
// Forward, Forward beats Absorb, and Absorb beats Continue. Operations that
// only transform header fields leave the verdict at Continue.
const (
	VerdictContinue Verdict = iota
	VerdictAbsorb           // consumed by router state (PIT aggregation, cache hit)
	VerdictForward          // send out Egress port(s)
	VerdictDeliver          // hand to the local host stack
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictContinue:
		return "continue"
	case VerdictAbsorb:
		return "absorb"
	case VerdictForward:
		return "forward"
	case VerdictDeliver:
		return "deliver"
	case VerdictDrop:
		return "drop"
	}
	return "verdict(?)"
}

// DropReason explains a VerdictDrop.
type DropReason uint8

// Drop reasons counted by routers and reported in FN-unsupported signalling.
const (
	DropNone          DropReason = iota
	DropHopLimit                 // hop limit exhausted
	DropMalformed                // framing or operand errors
	DropUnsupportedFN            // router lacks a required operation (§2.4)
	DropOpBudget                 // more FNs than the security limit allows
	DropDeadline                 // per-packet processing deadline exceeded
	DropStateBudget              // per-packet state consumption exceeded
	DropNoRoute                  // match operation found no route
	DropPITMiss                  // data packet without a pending interest
	DropVerifyFailed             // authentication tags invalid
	DropGuard                    // rejected by a security guard (F_pass)
	DropOpError                  // operation failed internally
	DropFlood                    // per-inport pending-interest cap (flood defense)
	numDropReasons
)

// NumDropReasons is the count of distinct drop reasons, for counter arrays.
const NumDropReasons = int(numDropReasons)

var dropNames = [...]string{
	"none", "hop-limit", "malformed", "unsupported-fn", "op-budget",
	"deadline", "state-budget", "no-route", "pit-miss", "verify-failed",
	"guard", "op-error", "flood-cap",
}

// String names the drop reason.
func (r DropReason) String() string {
	if int(r) < len(dropNames) {
		return dropNames[r]
	}
	return "drop(?)"
}

// PortNone marks an unset egress port.
const PortNone = -1

// maxEgress bounds the ports one packet can be replicated to (PIT entries
// aggregate at most this many pending requesters per packet).
const maxEgress = 8

// CryptoState is the parameter block F_parm loads for the authentication
// operations that follow it on the same packet (paper §3: "generate the key
// and load other parameters").
type CryptoState struct {
	Key      [16]byte // hop key derived from the session ID
	HaveKey  bool
	PrevNode [16]byte // previous validator node label (used by F_MAC)
	HopIndex uint8    // this router's position in the validation chain
}

// SampleHint is a pre-made per-packet tracing decision carried on the
// ExecContext. Batched dataplanes take the 1-in-N sampling decision once
// per burst (see BurstSampler) and stamp the outcome here, so the
// PacketRecorder's BeginPacket skips its striped-counter arithmetic for
// every packet of the burst.
type SampleHint int8

// Sampling hints. The zero value means "no pre-made decision": the
// recorder samples per packet as it always has.
const (
	SampleAuto  SampleHint = 0  // recorder decides (packet-at-a-time path)
	SampleForce SampleHint = 1  // burst plan chose this packet; trace it
	SampleSkip  SampleHint = -1 // burst plan passed over this packet
)

// ExecContext carries one packet through the engine. Contexts are owned by
// the caller and reused across packets via Reset, keeping the forwarding
// path allocation-free.
type ExecContext struct {
	View   View
	InPort int

	// Verdict state, merged across operations by precedence.
	Verdict Verdict
	Reason  DropReason
	// Egress holds the output ports chosen by match operations. Multiple
	// entries mean replication (PIT fan-out).
	Egress [maxEgress]int
	NEgr   int

	// Crypto is the F_parm → F_MAC/F_mark/F_ver parameter channel.
	Crypto CryptoState

	// Passed records that an F_pass source-label check succeeded on this
	// packet; cache-writing operations consult it when the node runs in
	// require-pass mode (content-poisoning defense, §2.4).
	Passed bool

	// Cached is set when an interest was satisfied locally; the router
	// synthesizes the data reply from it. It points into CacheBuf, never
	// into the content store.
	Cached []byte

	// CacheBuf and ReplyBuf are context-owned scratch that Reset keeps, so
	// a context reused across packets (a forwarder's, or a pooled one)
	// reuses them packet after packet. Content-store hits
	// are copied into CacheBuf[:0] under the store's shard lock, and the
	// router builds the cache-reply packet into ReplyBuf[:0]. Both grow to
	// the largest object seen. Whoever is handed a slice of them (a Port's
	// Send) must not keep it past the call.
	CacheBuf []byte
	ReplyBuf []byte

	// SourceLoc/SourceLen record the operand of an F_source FN, letting the
	// router address FN-unsupported messages back to the packet's source.
	SourceLoc uint16
	SourceLen uint16
	HasSource bool

	// SignalUnsupported is set when the packet was dropped for an
	// unsupported FN whose catalog policy demands notifying the source.
	SignalUnsupported bool
	// UnsupportedKey is the offending key when SignalUnsupported is set.
	UnsupportedKey Key

	// Deadline, when nonzero, is the absolute per-packet processing
	// deadline (security limit, paper §2.4).
	Deadline time.Time

	// Trace, when non-nil, receives this packet's per-FN execution events:
	// the packet was selected by a sampling PacketRecorder's BeginPacket.
	// Nil (the overwhelmingly common case) costs the engine one pointer
	// check per executed FN and nothing else.
	Trace TraceSink

	// Sample is the burst dataplane's pre-made tracing decision for this
	// packet (see SampleHint). Reset restores SampleAuto; burst callers
	// stamp their hint after Reset, before Process.
	Sample SampleHint

	// AdmittedAt and QueueDepth are the serving layer's admission snapshot
	// for in-band telemetry: the dataplane clock reading (ns) when this
	// packet's burst was picked up, and how many packets were queued behind
	// it at that moment. F_tel folds them into the hop record (per-hop
	// latency, queue depth at admission). They are burst-scoped — stamped
	// once per burst on the forwarder's context — so Reset deliberately leaves
	// them alone; single-packet entry points zero them instead. Zero means
	// "unknown": F_tel then records no latency and falls back to its own
	// depth provider.
	AdmittedAt int64
	QueueDepth int32

	// MonoNow is the engine's monotonic reading (relative to MonoBase)
	// taken just before dispatching the current operation — the same read
	// that starts the op-latency measurement. Operations needing "now" at
	// coarse granularity (F_tel's wall-µs stamp) reuse it instead of
	// paying their own clock read. Zero when the engine isn't recording.
	MonoNow time.Duration

	stateBudget int // remaining per-packet state bytes; <0 means unlimited
}

// Reset prepares the context for a new packet. The view must already be
// parsed. Limits are re-armed from the engine on each Process call. The
// scratch buffers (CacheBuf, ReplyBuf) and the burst-scoped admission
// fields are kept.
func (c *ExecContext) Reset(v View, inPort int) {
	c.View = v
	c.InPort = inPort
	c.Verdict = VerdictContinue
	c.Reason = DropNone
	c.NEgr = 0
	c.Crypto = CryptoState{}
	c.Passed = false
	c.Cached = nil
	c.SourceLoc, c.SourceLen, c.HasSource = 0, 0, false
	c.SignalUnsupported = false
	c.UnsupportedKey = 0
	c.Deadline = time.Time{}
	c.Trace = nil
	c.Sample = SampleAuto
	c.MonoNow = 0
	c.stateBudget = -1
}

// SetCached records a content-store hit whose payload the caller appended
// to CacheBuf[:0]: the (possibly grown) buffer becomes the context's
// scratch and Cached points at it. An empty payload is still a hit, so
// Cached is never nil afterwards.
func (c *ExecContext) SetCached(data []byte) {
	if data == nil {
		data = []byte{}
	}
	c.CacheBuf, c.Cached = data, data
}

// AddEgress records an output port. Duplicate ports collapse; overflow
// beyond the replication bound is silently capped (the packet still
// forwards to the first maxEgress ports).
func (c *ExecContext) AddEgress(port int) {
	for i := 0; i < c.NEgr; i++ {
		if c.Egress[i] == port {
			return
		}
	}
	if c.NEgr < maxEgress {
		c.Egress[c.NEgr] = port
		c.NEgr++
	}
	if c.Verdict < VerdictForward {
		c.Verdict = VerdictForward
	}
}

// EgressPorts returns the chosen output ports (valid until Reset).
func (c *ExecContext) EgressPorts() []int { return c.Egress[:c.NEgr] }

// Drop records a drop verdict with its reason. The first drop reason wins.
func (c *ExecContext) Drop(r DropReason) {
	if c.Verdict != VerdictDrop {
		c.Verdict = VerdictDrop
		c.Reason = r
	}
}

// Deliver marks the packet for local delivery.
func (c *ExecContext) Deliver() {
	if c.Verdict < VerdictDeliver {
		c.Verdict = VerdictDeliver
	}
}

// Absorb marks the packet as consumed by router state: nothing is forwarded
// and nothing is wrong (interest aggregation, content served from cache).
func (c *ExecContext) Absorb() {
	if c.Verdict < VerdictAbsorb {
		c.Verdict = VerdictAbsorb
	}
}

// ChargeState debits n bytes from the per-packet state budget and reports
// whether the packet is still within it. Operations that create router
// state (PIT entries, cache insertions) must charge before committing.
func (c *ExecContext) ChargeState(n int) bool {
	if c.stateBudget < 0 {
		return true
	}
	if n > c.stateBudget {
		c.Drop(DropStateBudget)
		return false
	}
	c.stateBudget -= n
	return true
}
