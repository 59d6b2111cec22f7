package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dip"
	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/nhash"
	"dip/internal/opt"
	"dip/internal/profiles"
	"dip/internal/telemetry"
	"dip/internal/workload"
)

// secure-int: NDN+OPT interest/data pairs with unique names, so the content
// store only ever misses and churns. Every packet carries an 8-slot F_tel
// region the router stamps, and the router records trace samples 1-in-64
// and journey spans 1-in-1024, wired as cmd/diprouter wires them. Packets
// are pre-built at set-up and copied per send with the name patched in (the
// name lies outside the OPT-protected region). Data packets are 768 bytes.
const (
	secureDataSize = 768
	secureTelSlots = 8
	secureVariants = 16      // distinct data payloads
	secureSlots    = 1 << 17 // names cycle after this many units
	secureTrace    = 64      // trace sampling: 1 in 64
	secureJourney  = 1024    // journey sampling: 1 in 1024
	secureHopName  = "secure-int"
)

type secureApp struct {
	sess      *dip.Session
	secret    *dip.SecretValue
	hopID     uint32
	interest0 []byte
	data      [][]byte // per variant: the data packet, name zero
	payloads  [][]byte
	variant   []uint8 // name slot → payload variant
	nameOff   int     // byte offset of the name in both packets
	optOff    int     // byte offset of the OPT region in the data packet
	sum       uint64
}

func newSecureApp(seed int64) (*secureApp, error) {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 16)
	rng.Read(key)
	a := &secureApp{hopID: uint32(nhash.Bytes([]byte(secureHopName)))}
	var err error
	if a.secret, err = dip.NewSecret(secureHopName, key); err != nil {
		return nil, err
	}
	dst := make([]byte, 16)
	rng.Read(dst)
	destSecret, err := dip.NewSecret("consumer", dst)
	if err != nil {
		return nil, err
	}
	// The session ID comes from the OPT handshake's randomness, so it is
	// not part of the seeded input digest; everything else is.
	a.sess, err = dip.NewSession(dip.MAC2EM, []dip.HopConfig{{Secret: a.secret}}, destSecret)
	if err != nil {
		return nil, err
	}
	ih, err := dip.NDNOPTInterestProfile(a.sess, 0, 1)
	if err != nil {
		return nil, err
	}
	if a.interest0, err = dip.BuildPacket(dip.WithTelemetry(ih, secureTelSlots), nil); err != nil {
		return nil, err
	}
	h := fnvOffset
	for v := 0; v < secureVariants; v++ {
		probe, err := dip.NDNOPTDataProfile(a.sess, 0, nil, 1)
		if err != nil {
			return nil, err
		}
		hdr := dip.WithTelemetry(probe, secureTelSlots).WireSize()
		payload := make([]byte, secureDataSize-hdr)
		rng.Read(payload)
		dh, err := dip.NDNOPTDataProfile(a.sess, 0, payload, uint32(v+1))
		if err != nil {
			return nil, err
		}
		pkt, err := dip.BuildPacket(dip.WithTelemetry(dh, secureTelSlots), payload)
		if err != nil {
			return nil, err
		}
		if len(pkt) != secureDataSize {
			return nil, fmt.Errorf("secure-int data is %d bytes, want %d", len(pkt), secureDataSize)
		}
		a.data = append(a.data, pkt)
		a.payloads = append(a.payloads, payload)
		h = fnvAdd(h, payload)
	}
	v, err := core.ParseView(a.data[0])
	if err != nil {
		return nil, err
	}
	a.nameOff = v.HeaderLen() - len(v.Locations())
	a.optOff = a.nameOff + 4
	iv, err := core.ParseView(a.interest0)
	if err != nil || iv.HeaderLen()-len(iv.Locations()) != a.nameOff {
		return nil, errors.New("secure-int interest and data disagree on the name offset")
	}
	a.variant = make([]uint8, secureSlots)
	for i := range a.variant {
		a.variant[i] = uint8(rng.Intn(secureVariants))
		h = fnvAddUint(h, uint64(a.variant[i]))
	}
	a.sum = h
	return a, nil
}

func (a *secureApp) digest() uint64       { return a.sum }
func (a *secureApp) slots() int           { return secureSlots }
func (a *secureApp) slot(name uint32) int { return int(name & (secureSlots - 1)) }
func (a *secureApp) deferCheck() bool     { return true }

func (a *secureApp) build(ports []dip.Port, clock func() time.Duration, v variant) (*stackParts, error) {
	state := newNodeState(ndnCS)
	state.EnableOPT(a.secret, dip.MAC2EM, [16]byte{}, 0)
	if err := state.NameFIB.AddUint32(workload.NamePrefix, 8, dip.NextHop{Port: producerPort}); err != nil {
		return nil, err
	}
	sp := &stackParts{state: state}
	opts := dip.RouterOptions{Name: secureHopName}
	if v == variantFull || v == variantMetrics || v == variantTrace {
		sp.metrics = &telemetry.Metrics{}
		opts.Metrics = sp.metrics
	}
	if v == variantFull || v == variantTrace {
		sp.tracer = dip.NewTraceRecorder(sp.metrics, secureTrace, 0)
		opts.Trace = sp.tracer
	}
	sp.r = dip.NewRouter(state.OpsConfig(), opts)
	if v != variantNilNoTel {
		if err := sp.r.Registry().Register(extops.NewTelWith(extops.TelConfig{
			HopID:   a.hopID,
			ClockNs: func() int64 { return int64(clock()) },
			Epoch: func() uint32 {
				return state.FIB32.Epoch() + state.FIB128.Epoch() + state.NameFIB.Epoch()
			},
		})); err != nil {
			return nil, err
		}
	}
	if v == variantFull {
		sp.journeys = dip.NewJourneyEmitter(0)
		sp.r.SetRecorder(dip.NewRouterJourneyTap(secureHopName, sp.journeys, sp.tracer, secureJourney, nil))
	}
	for _, p := range ports {
		sp.r.AttachPort(p)
	}
	return sp, nil
}

func (a *secureApp) name(seq uint64) uint32 {
	return workload.NamePrefix | uint32(seq&(secureSlots-1))
}

func (a *secureApp) interest(seq uint64) ([]byte, uint32) {
	name := a.name(seq)
	pkt := append(make([]byte, 0, len(a.interest0)), a.interest0...)
	binary.BigEndian.PutUint32(pkt[a.nameOff:], name)
	return pkt, name
}

func (a *secureApp) answer(name uint32) []byte {
	t := a.data[a.variant[a.slot(name)]]
	pkt := append(make([]byte, 0, len(t)), t...)
	binary.BigEndian.PutUint32(pkt[a.nameOff:], name)
	return pkt
}

func (a *secureApp) forwardedOK(pkt []byte) (uint32, bool) {
	name, ok := dip.InterestName(pkt)
	return name, ok && len(pkt) == len(a.interest0) && pkt[3] == hopAfter &&
		name&^(secureSlots-1) == workload.NamePrefix
}

// dataOK is the secure-int oracle: the OPT chain verifies at the consumer
// (Session.Verify), the telemetry region holds exactly one hop record
// stamped with this router's hop ID, and the payload is the variant the
// producer sent for this name.
func (a *secureApp) dataOK(pkt []byte) (uint32, bool) {
	v, err := core.ParseView(pkt)
	if err != nil || len(pkt) != secureDataSize || v.HopLimit() != hopAfter {
		return 0, false
	}
	name, ok := dip.DataName(pkt)
	if !ok {
		return name, false
	}
	region, _, ok := profiles.TelemetryRegion(v)
	if !ok {
		return name, false
	}
	hops, overflow, err := extops.DecodeTel(region)
	if err != nil || overflow || len(hops) != 1 || hops[0].HopID != a.hopID {
		return name, false
	}
	payload := v.Payload()
	if !bytes.Equal(payload, a.payloads[a.variant[a.slot(name)]]) {
		return name, false
	}
	optRegion := pkt[a.optOff : a.optOff+opt.RegionSize(1)]
	return name, a.sess.Verify(optRegion, payload) == nil
}
