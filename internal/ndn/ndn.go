// Package ndn implements a native Named Data Networking forwarder — the
// non-DIP realization of the protocol the paper decomposes into F_FIB and
// F_PIT. It exists for three reasons: it is the Table 2 "NDN forwarding"
// row (a 16-byte fixed header), it cross-checks that DIP-decomposed NDN
// behaves identically to a purpose-built forwarder, and it carries the
// content-store extension from the paper's footnote 2.
//
// Per the prototype (§4.1), names on the wire are 32-bit content-name IDs
// (see internal/names for the human-name mapping).
package ndn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dip/internal/cs"
	"dip/internal/fib"
	"dip/internal/pit"
)

// HeaderSize is the fixed native NDN header: Table 2's 16-byte NDN row.
const HeaderSize = 16

// Packet types.
const (
	TypeInterest = 1
	TypeData     = 2
)

// Header layout:
//
//	[0]     packet type (interest/data)
//	[1]     hop limit
//	[2:4]   flags (reserved)
//	[4:8]   nonce (interest loop suppression)
//	[8:12]  32-bit content name ID
//	[12:16] reserved
const (
	offType  = 0
	offHop   = 1
	offNonce = 4
	offName  = 8
)

// Errors from parsing.
var (
	ErrTruncated = errors.New("ndn: truncated packet")
	ErrBadType   = errors.New("ndn: unknown packet type")
)

// Packet is an in-place view of a native NDN packet.
type Packet struct{ b []byte }

// Parse validates b and returns a view.
func Parse(b []byte) (Packet, error) {
	if len(b) < HeaderSize {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[offType] != TypeInterest && b[offType] != TypeData {
		return Packet{}, fmt.Errorf("%w: %d", ErrBadType, b[offType])
	}
	return Packet{b: b}, nil
}

// BuildInterest encodes an interest for nameID into a fresh slice.
func BuildInterest(nameID uint32, nonce uint32, hopLimit uint8) []byte {
	b := make([]byte, HeaderSize)
	b[offType] = TypeInterest
	b[offHop] = hopLimit
	binary.BigEndian.PutUint32(b[offNonce:], nonce)
	binary.BigEndian.PutUint32(b[offName:], nameID)
	return b
}

// BuildData encodes a data packet carrying payload for nameID.
func BuildData(nameID uint32, hopLimit uint8, payload []byte) []byte {
	b := make([]byte, HeaderSize+len(payload))
	b[offType] = TypeData
	b[offHop] = hopLimit
	binary.BigEndian.PutUint32(b[offName:], nameID)
	copy(b[HeaderSize:], payload)
	return b
}

// Type returns the packet type.
func (p Packet) Type() uint8 { return p.b[offType] }

// HopLimit returns the remaining hop budget.
func (p Packet) HopLimit() uint8 { return p.b[offHop] }

// Nonce returns the interest nonce.
func (p Packet) Nonce() uint32 { return binary.BigEndian.Uint32(p.b[offNonce:]) }

// NameID returns the 32-bit content name.
func (p Packet) NameID() uint32 { return binary.BigEndian.Uint32(p.b[offName:]) }

// Payload returns the bytes after the header (data packets).
func (p Packet) Payload() []byte { return p.b[HeaderSize:] }

// DecHopLimit decrements the hop limit in place, reporting whether the
// packet may still travel.
func (p Packet) DecHopLimit() bool {
	if p.b[offHop] == 0 {
		return false
	}
	p.b[offHop]--
	return true
}

// Action classifies a forwarding outcome.
type Action uint8

// Forwarding outcomes.
const (
	// ActForward: send the packet out Result.Ports (one port for
	// interests, possibly several for data fan-out).
	ActForward Action = iota
	// ActAggregated: interest joined an existing PIT entry; do not forward.
	ActAggregated
	// ActCacheHit: interest satisfied from the content store;
	// Result.Cached holds the payload to return on the ingress port.
	ActCacheHit
	// ActDeliver: this node is the producer for the name.
	ActDeliver
	// ActDropNoRoute, ActDropPITMiss, ActDropHopLimit, ActDropMalformed,
	// ActDropPITFull: discard, with the reason.
	ActDropNoRoute
	ActDropPITMiss
	ActDropHopLimit
	ActDropMalformed
	ActDropPITFull
	// ActDropDuplicate: the interest's (name, nonce) pair was seen before —
	// a forwarding loop or a replay, suppressed by the dead-nonce list.
	ActDropDuplicate
)

// String names the action.
func (a Action) String() string {
	names := [...]string{"forward", "aggregated", "cache-hit", "deliver",
		"drop-no-route", "drop-pit-miss", "drop-hop-limit", "drop-malformed",
		"drop-pit-full", "drop-duplicate"}
	if int(a) < len(names) {
		return names[a]
	}
	return "action(?)"
}

// Result is the outcome of processing one packet.
type Result struct {
	Action Action
	// Ports are egress ports (appended into the caller's buffer).
	Ports []int
	// Cached is the content-store payload on ActCacheHit: a copy taken
	// under the store's shard lock, owned by the caller.
	Cached []byte
}

// Forwarder is a native NDN forwarder: FIB + PIT + optional content store,
// with a dead-nonce list suppressing interest loops.
type Forwarder struct {
	FIB *fib.Table
	PIT *pit.Table[uint32]
	CS  *cs.Store[uint32] // nil disables caching
	dnl *nonceFilter
}

// DeadNonceCapacity is the dead-nonce list size.
const DeadNonceCapacity = 8192

// NewForwarder builds a forwarder with a fresh FIB and PIT and a content
// store of csCapacity entries (0 disables caching).
func NewForwarder(csCapacity int) *Forwarder {
	f := &Forwarder{FIB: fib.New(), PIT: pit.New[uint32](), dnl: newNonceFilter(DeadNonceCapacity)}
	if csCapacity > 0 {
		f.CS = cs.New[uint32](csCapacity)
	}
	return f
}

// Process runs one packet through the forwarder. portsBuf is the caller's
// scratch for egress ports, keeping the hot path allocation-free.
func (f *Forwarder) Process(b []byte, inPort int, portsBuf []int) Result {
	p, err := Parse(b)
	if err != nil {
		return Result{Action: ActDropMalformed}
	}
	switch p.Type() {
	case TypeInterest:
		return f.processInterest(p, inPort, portsBuf)
	default:
		return f.processData(p, portsBuf)
	}
}

func (f *Forwarder) processInterest(p Packet, inPort int, portsBuf []int) Result {
	name := p.NameID()
	if f.dnl != nil && f.dnl.seen(name, p.Nonce()) {
		return Result{Action: ActDropDuplicate}
	}
	// Footnote 2: match the local content store before the FIB.
	if f.CS != nil {
		if data, ok := f.CS.AppendGet(nil, name); ok {
			return Result{Action: ActCacheHit, Cached: data, Ports: append(portsBuf, inPort)}
		}
	}
	nh, ok := f.FIB.LookupUint32(name)
	if !ok {
		return Result{Action: ActDropNoRoute}
	}
	if nh.Port == fib.PortLocal {
		return Result{Action: ActDeliver, Ports: append(portsBuf, inPort)}
	}
	created, err := f.PIT.AddInterest(name, inPort)
	if err != nil {
		return Result{Action: ActDropPITFull}
	}
	if !created {
		return Result{Action: ActAggregated}
	}
	if !p.DecHopLimit() {
		return Result{Action: ActDropHopLimit}
	}
	return Result{Action: ActForward, Ports: append(portsBuf, nh.Port)}
}

func (f *Forwarder) processData(p Packet, portsBuf []int) Result {
	name := p.NameID()
	ports, ok := f.PIT.Consume(portsBuf, name)
	if !ok {
		return Result{Action: ActDropPITMiss}
	}
	if f.CS != nil {
		f.CS.Put(name, p.Payload())
	}
	if !p.DecHopLimit() {
		return Result{Action: ActDropHopLimit}
	}
	return Result{Action: ActForward, Ports: ports}
}

// nonceFilter is the dead-nonce list: a bounded set of recently seen
// (name, nonce) pairs used to suppress interest loops, as NDN forwarders
// do. It is a fixed-size ring so memory stays bounded under attack.
type nonceFilter struct {
	mu   sync.Mutex
	set  map[uint64]struct{}
	ring []uint64
	next int
}

func newNonceFilter(capacity int) *nonceFilter {
	return &nonceFilter{
		set:  make(map[uint64]struct{}, capacity),
		ring: make([]uint64, capacity),
	}
}

// seen records (name, nonce) and reports whether it was already present.
func (f *nonceFilter) seen(name, nonce uint32) bool {
	key := uint64(name)<<32 | uint64(nonce)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.set[key]; dup {
		return true
	}
	if old := f.ring[f.next]; old != 0 {
		delete(f.set, old)
	}
	f.ring[f.next] = key
	f.next = (f.next + 1) % len(f.ring)
	f.set[key] = struct{}{}
	return false
}
