package main

import (
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"os"
	"testing"
	"time"

	"dip"
	"dip/internal/workload"
)

// Same seed, same input stream; another seed, another stream.
func TestInputDigestIsSeeded(t *testing.T) {
	digests := map[string]func(seed int64) uint64{
		"wire-ip": func(seed int64) uint64 {
			w := &wireBench{seed: seed}
			w.buildInputs()
			return w.digest
		},
		"ndn-zipf": func(seed int64) uint64 {
			a, err := newNDNApp(seed)
			if err != nil {
				t.Fatal(err)
			}
			return a.digest()
		},
		"secure-int": func(seed int64) uint64 {
			a, err := newSecureApp(seed)
			if err != nil {
				t.Fatal(err)
			}
			return a.digest()
		},
	}
	for name, digest := range digests {
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", name, a)
		}
	}
}

// wireOutput returns sequence number seq's packet as the router should
// emit it: the sent bytes with the hop limit one lower.
func wireOutput(w *wireBench, seq uint64) []byte {
	pkt := w.packet(nil, seq)
	pkt[3]--
	return pkt
}

func TestWireOracle(t *testing.T) {
	w := &wireBench{seed: 3, routerAP: netip.MustParseAddrPort("127.0.0.1:7000")}
	w.buildInputs()
	p := &pacer{start: 0, interval: 1000, n: 10}
	w.trial = &wireTrial{base: 100, n: 10, p: p, got: make([]uint8, 10), latNs: make([]float32, 10), lat: newSamples(10)}
	from := w.routerAP

	w.receive(wireOutput(w, 101), from, 5000)
	if w.trial.ndeliv != 1 || w.trial.wrong != 0 || w.trial.dup != 0 {
		t.Fatalf("correct output: delivered %d wrong %d dup %d", w.trial.ndeliv, w.trial.wrong, w.trial.dup)
	}
	w.receive(wireOutput(w, 101), from, 6000)
	if w.trial.dup != 1 {
		t.Errorf("duplicated output not flagged (dup=%d)", w.trial.dup)
	}
	bad := wireOutput(w, 102)
	bad[len(bad)-1] ^= 0xFF
	w.receive(bad, from, 7000)
	hop := wireOutput(w, 103)
	hop[3]++ // hop limit not decremented
	w.receive(hop, from, 7000)
	w.receive(wireOutput(w, 104), netip.MustParseAddrPort("127.0.0.1:7001"), 7000) // not from the router
	if w.trial.wrong != 3 {
		t.Errorf("wrong outputs flagged %d, want 3", w.trial.wrong)
	}
	if w.trial.ndeliv != 1 {
		t.Errorf("delivered %d, want 1", w.trial.ndeliv)
	}
}

// routeOnce pushes an interest and the producer's answer through a real
// router stack of app and returns what reached consumer face 0.
func routeOnce(t *testing.T, app inprocApp, seq uint64) []byte {
	t.Helper()
	var got, fwd []byte
	ports := make([]dip.Port, consumerPorts+1)
	for i := range ports {
		ports[i] = &countPort{}
	}
	ports[0] = dip.PortFunc(func(p []byte) { got = append([]byte(nil), p...) })
	ports[producerPort] = dip.PortFunc(func(p []byte) { fwd = append([]byte(nil), p...) })
	start := time.Now()
	sp, err := app.build(ports, func() time.Duration { return time.Since(start) }, variantFull)
	if err != nil {
		t.Fatal(err)
	}
	interest, name := app.interest(seq)
	sp.r.HandlePacket(interest, 0)
	fname, ok := app.forwardedOK(fwd)
	if !ok || fname != name {
		t.Fatalf("interest for %x not forwarded correctly (got %x, ok=%v)", name, fname, ok)
	}
	sp.r.HandlePacket(app.answer(name), producerPort)
	if got == nil {
		t.Fatal("no data reached the consumer face")
	}
	return got
}

func TestInprocOracles(t *testing.T) {
	ndn, err := newNDNApp(5)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := newSecureApp(5)
	if err != nil {
		t.Fatal(err)
	}
	for name, app := range map[string]inprocApp{"ndn-zipf": ndn, "secure-int": sec} {
		data := routeOnce(t, app, 42)
		if _, ok := app.dataOK(data); !ok {
			t.Fatalf("%s: the oracle rejects a correct data packet", name)
		}
		for _, off := range []int{3, len(data) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x01
			if _, ok := app.dataOK(bad); ok {
				t.Errorf("%s: the oracle accepts data corrupted at byte %d", name, off)
			}
		}
	}
	// A data packet the router never stamped must fail the F_tel check.
	unstamped := sec.answer(sec.name(42))
	unstamped[3]--
	if _, ok := sec.dataOK(unstamped); ok {
		t.Error("secure-int: the oracle accepts data without this hop's telemetry record")
	}
}

func TestHarnessFlagsDuplicates(t *testing.T) {
	app, err := newNDNApp(9)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(app)
	p := &pacer{start: 0, interval: 1000, n: 4}
	h.units = &inprocPhase{p: p, got: make([]uint8, 4), latNs: make([]float32, 4), lat: newSamples(4)}
	name := app.name(0)
	h.owner[app.slot(name)*consumerPorts+2] = 0
	h.satisfyLocked(name, 2, 100, true)
	h.satisfyLocked(name, 2, 200, true)
	h.satisfyLocked(name, 3, 300, true)
	if h.units.ndeliv != 1 || h.units.dup != 2 {
		t.Errorf("delivered %d dup %d, want 1 and 2", h.units.ndeliv, h.units.dup)
	}
	h.satisfyLocked(name, 2, 400, false)
	if h.units.wrong != 1 {
		t.Errorf("wrong %d, want 1", h.units.wrong)
	}
}

// The rate search finds a known knee: a synthetic sink that loses 1% of
// units above 37 kpps and none below.
func TestRateSearchFindsKnee(t *testing.T) {
	const knee = 37000.0
	spec := searchSpec{start: 8000, ceiling: 1e6, step: 1.25, precision: 1.02,
		maxLoss: 0.001, p99Limit: 1000, trial: time.Millisecond, maxTrials: 20}
	res := findMaxRate(spec, func(rate float64, _ time.Duration) trialResult {
		r := trialResult{offered: rate, sent: 100000, delivered: 100000, winP99us: 50}
		if rate > knee {
			r.delivered -= 1000
			r.winLoss = 0.01
		}
		return r
	})
	if !res.confirmed || res.maxRate > knee || res.maxRate < knee/1.02/1.02 {
		t.Fatalf("max rate %.0f (confirmed=%v), want within 4%% below %.0f", res.maxRate, res.confirmed, knee)
	}
	// A latency limit binds the same way.
	res = findMaxRate(spec, func(rate float64, _ time.Duration) trialResult {
		r := trialResult{offered: rate, sent: 1000, delivered: 1000, winP99us: 50}
		if rate > knee {
			r.winP99us = 5000
		}
		return r
	})
	if !res.confirmed || res.maxRate > knee || res.maxRate < knee/1.02/1.02 {
		t.Fatalf("latency-bound max rate %.0f, want within 4%% below %.0f", res.maxRate, knee)
	}
}

func TestSegPayloadMatchesWorkload(t *testing.T) {
	app, err := newNDNApp(1)
	if err != nil {
		t.Fatal(err)
	}
	pkt := app.answer(0xAA001234)
	want := workload.SegPayload(0xAA001234, ndnPayload)
	if string(pkt[ndnHdrSize:]) != string(want) {
		t.Fatal("fast SegPayload differs from workload.SegPayload")
	}
}

func TestRxTimestampParse(t *testing.T) {
	oob := make([]byte, 32)
	binary.NativeEndian.PutUint64(oob[0:], 32)
	binary.NativeEndian.PutUint32(oob[8:], 1)   // SOL_SOCKET
	binary.NativeEndian.PutUint32(oob[12:], 35) // SCM_TIMESTAMPNS
	binary.NativeEndian.PutUint64(oob[16:], 3)
	binary.NativeEndian.PutUint64(oob[24:], 7)
	if ns, ok := rxTimestamp(oob); !ok || ns != 3_000_000_007 {
		t.Fatalf("rxTimestamp = %d, %v", ns, ok)
	}
}

// BENCHMARK.json and the code agree on every metric name and unit.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEndUnits) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, code %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEndUnits), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEndUnits[i].name || m.Unit != endToEndUnits[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, code %s/%s", i, m.Name, m.Unit, endToEndUnits[i].name, endToEndUnits[i].unit)
		}
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, code %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the code", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
}

// A stall that loses units in one slice of a trial does not fail it;
// loss in most slices does.
func TestJudgeIgnoresOneStalledWindow(t *testing.T) {
	n := 1000
	got, lat := make([]uint8, n), make([]float32, n)
	for i := range got {
		got[i], lat[i] = 1, 40000
	}
	for i := 300; i < 380; i++ { // one slice lost most of its units
		got[i] = 0
	}
	var r trialResult
	r.judge(got, lat)
	if r.winLoss != 0 || r.winP99us != 40 {
		t.Fatalf("window loss %.3f p99 %.1fus, want 0 and 40", r.winLoss, r.winP99us)
	}
	for i := 0; i < n; i += 50 { // every slice loses 2%
		got[i] = 0
	}
	r.judge(got, lat)
	if r.winLoss < 0.01 {
		t.Fatalf("window loss %.3f, want the sustained 2%%", r.winLoss)
	}
}

// After a stall the pacer releases the units that fell due at no more than
// the catch-up rate, and each keeps its due time for lateness.
func TestPacerBoundedCatchUp(t *testing.T) {
	late := newSamples(8)
	p := &pacer{start: 0, interval: 1000, n: 8, late: late, minGap: 500}
	if k := p.take(0, 64); k != 1 {
		t.Fatalf("first take: %d units, want 1", k)
	}
	// A 4000 ns stall: units 1..4 are due, but only 4000/500 = 8 may go,
	// capped by what is due.
	if k := p.take(4000, 64); k != 4 {
		t.Fatalf("take after the stall: %d units, want 4", k)
	}
	if got := p.nextSend(); got != 5000 {
		t.Fatalf("nextSend = %d, want unit 5's due time 5000", got)
	}
	// Behind again by 3 units at 8000 but only 500 ns after the last take:
	// one unit may go, and the next not before 8500.
	p.last = 7500
	if k := p.take(8000, 64); k != 1 {
		t.Fatalf("take within the catch-up gap: %d units, want 1", k)
	}
	if got := p.nextSend(); got != 8500 {
		t.Fatalf("nextSend during catch-up = %d, want 8500", got)
	}
	if l := late.ns[len(late.ns)-1]; l != 3000 {
		t.Fatalf("caught-up unit's lateness %v, want 3000 (from its due time)", l)
	}
}
