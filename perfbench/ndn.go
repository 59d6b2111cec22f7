package main

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"time"

	"dip"
	"dip/internal/profiles"
	"dip/internal/telemetry"
	"dip/internal/workload"
)

// ndn-zipf: interests over a Zipf-popular catalog eight times the content
// store, so CS reads (hits) and writes (insert + evict) interleave and
// popular names aggregate in the PIT while their data is outstanding. The
// producer answers misses with 1500-byte data whose payload is
// workload.SegPayload(name, 1484); the router answers hits from its store.
const (
	ndnCatalog  = 1 << 15
	ndnCS       = ndnCatalog / 8
	ndnZipfS    = 1.1
	ndnStream   = 1 << 20
	ndnDataSize = 1500
	ndnHdrSize  = 16 // NDN interest and data headers (Table 2)
	ndnPayload  = ndnDataSize - ndnHdrSize
)

type ndnApp struct {
	names     []uint32 // catalog rank → name
	stream    []uint16 // unit → catalog rank
	interest0 []byte   // interest template (name patched per unit)
	data0     []byte   // data header template
	pattern   []byte   // SegPayload's name-independent part: byte(i)
	sum       uint64
}

func newNDNApp(seed int64) (*ndnApp, error) {
	rng := rand.New(rand.NewSource(seed))
	a := &ndnApp{names: make([]uint32, ndnCatalog), stream: make([]uint16, ndnStream)}
	for r, idx := range rng.Perm(ndnCatalog) {
		a.names[r] = workload.NamePrefix | uint32(idx)
	}
	z := rand.NewZipf(rng, ndnZipfS, 1, ndnCatalog-1)
	h := fnvOffset
	for i := range a.stream {
		a.stream[i] = uint16(z.Uint64())
		h = fnvAddUint(h, uint64(a.names[a.stream[i]]))
	}
	a.sum = h
	var err error
	if a.interest0, err = dip.BuildPacket(dip.NDNInterestProfile(0), nil); err != nil {
		return nil, err
	}
	if a.data0, err = dip.BuildPacket(dip.NDNDataProfile(0), nil); err != nil {
		return nil, err
	}
	if len(a.interest0) != ndnHdrSize || len(a.data0) != ndnHdrSize {
		return nil, errors.New("unexpected NDN header size")
	}
	a.pattern = make([]byte, ndnPayload)
	for i := range a.pattern {
		a.pattern[i] = byte(i)
	}
	return a, nil
}

func (a *ndnApp) digest() uint64 { return a.sum }
func (a *ndnApp) slots() int     { return ndnCatalog }
func (a *ndnApp) slot(name uint32) int {
	return int(name & (ndnCatalog - 1))
}
func (a *ndnApp) deferCheck() bool { return false }

func (a *ndnApp) build(ports []dip.Port, _ func() time.Duration, v variant) (*stackParts, error) {
	state := newNodeState(ndnCS)
	if err := state.NameFIB.AddUint32(workload.NamePrefix, 8, dip.NextHop{Port: producerPort}); err != nil {
		return nil, err
	}
	sp := &stackParts{state: state}
	opts := dip.RouterOptions{Name: "ndn-zipf"}
	switch v {
	case variantFull, variantMetrics:
		sp.metrics = &telemetry.Metrics{}
		opts.Metrics = sp.metrics
	case variantTrace:
		sp.metrics = &telemetry.Metrics{}
		opts.Metrics = sp.metrics
		sp.tracer = dip.NewTraceRecorder(sp.metrics, secureTrace, 0)
		opts.Trace = sp.tracer
	}
	sp.r = dip.NewRouter(state.OpsConfig(), opts)
	for _, p := range ports {
		sp.r.AttachPort(p)
	}
	return sp, nil
}

func (a *ndnApp) name(seq uint64) uint32 { return a.names[a.stream[seq%ndnStream]] }

func (a *ndnApp) interest(seq uint64) ([]byte, uint32) {
	name := a.name(seq)
	pkt := append(make([]byte, 0, ndnHdrSize), a.interest0...)
	binary.BigEndian.PutUint32(pkt[ndnHdrSize-4:], name)
	return pkt, name
}

// nameWord is the name's bytes in SegPayload order (least significant
// first), repeated to fill 64 bits.
func nameWord(name uint32) uint64 { return uint64(name) | uint64(name)<<32 }

func (a *ndnApp) answer(name uint32) []byte {
	pkt := make([]byte, ndnDataSize)
	copy(pkt, a.data0)
	binary.BigEndian.PutUint32(pkt[ndnHdrSize-4:], name)
	segPayloadInto(pkt[ndnHdrSize:], a.pattern, name)
	return pkt
}

// segPayloadInto writes workload.SegPayload(name, len(dst)) eight bytes at a
// time: byte i is byte(name>>(8*(i%4))) ^ byte(i).
func segPayloadInto(dst, pattern []byte, name uint32) {
	w := nameWord(name)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], w^binary.LittleEndian.Uint64(pattern[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(name>>(8*(i%4))) ^ pattern[i]
	}
}

// segPayloadEqual reports whether b equals workload.SegPayload(name, len(b)).
func segPayloadEqual(b, pattern []byte, name uint32) bool {
	w := nameWord(name)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != w^binary.LittleEndian.Uint64(pattern[i:]) {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != byte(name>>(8*(i%4)))^pattern[i] {
			return false
		}
	}
	return true
}

func (a *ndnApp) forwardedOK(pkt []byte) (uint32, bool) {
	name, ok := dip.InterestName(pkt)
	return name, ok && len(pkt) == ndnHdrSize && pkt[3] == hopAfter &&
		name&^(ndnCatalog-1) == workload.NamePrefix
}

// dataOK is the ndn-zipf oracle: 1500 bytes, hop limit one lower than sent,
// and the payload SegPayload(name, 1484) exactly.
func (a *ndnApp) dataOK(pkt []byte) (uint32, bool) {
	name, ok := dip.DataName(pkt)
	if !ok || len(pkt) != ndnDataSize || pkt[3] != hopAfter {
		return name, false
	}
	return name, segPayloadEqual(pkt[ndnHdrSize:], a.pattern, name)
}

// hopAfter is the hop limit every output must carry: one router hop below
// what the generator sent.
const hopAfter = profiles.DefaultHopLimit - 1
