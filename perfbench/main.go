// Command perfbench is the repository benchmark: three open-loop workloads
// that split a DIP packet's cost between the wire (the real diprouter on
// loopback) and the in-process dataplane (router, engine, FNs, telemetry).
// See README.md in this directory for what each workload loads and why.
//
// Usage (from the repository root, through the launcher that builds the
// binaries first):
//
//	bash perfbench/run.sh --workload wire-ip --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end ones untraced, per-layer ones with
// --trace 1). Everything before it is a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload runner receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	router   string // diprouter binary
	goTool   string // go command, for pprof
	outDir   string // run artefacts (logs, spans, profiles, the run record)
}

// result is one run's outcome, common to every workload.
type result struct {
	// End to end (untraced runs).
	maxRate    float64
	confirmed  bool
	p50, p99   float64   // µs at the reference rate
	p90        float64   // µs
	steal      []float64 // steal shares of the quiet windows
	quietN     int       // latency samples in the quiet windows
	p999       float64   // µs
	latN       int
	loss       float64
	ref        trialResult
	cpuNs      float64 // CPU of the system under test per delivered unit
	setup      []float64
	rssMB      float64
	genLateP50 float64 // µs
	genLateP90 float64
	genLateP99 float64
	// genLateQuietP50 is the median lateness of the units due in the quiet
	// windows, the ones lat_p50_us is taken over (µs).
	genLateQuietP50 float64
	search          searchResult
	digest          uint64
	// Per layer (traced runs): name → value, with units.
	layers map[string]metric
	// ledger is the reconciliation: layer → ns per unit, plus the residual.
	ledger      []ledgerRow
	tracedCPU   float64
	untracedCPU float64
	notes       []string
}

type ledgerRow struct {
	layer string
	ns    float64
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "wire-ip | ndn-zipf | secure-int")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.router, "router", "", "diprouter binary (wire-ip)")
	flag.StringVar(&cfg.goTool, "go", "go", "go command (pprof analysis of traced wire-ip runs)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for run artefacts")
	flag.Parse()
	cfg.traced = *trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	spec, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.outDir = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rec := collectRecord(cfg)
	fmt.Println(rec.String())
	start := time.Now()
	res, err := spec.run(cfg, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report(cfg, spec, res, time.Since(start))
	if err := writeRecord(cfg, rec, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	out := output{
		Correct:   res.ref.wrong == 0 && res.ref.dup == 0 && res.ref.delivered == res.ref.sent,
		Attempted: res.ref.sent,
		Failed:    res.ref.sent - res.ref.delivered + res.ref.wrong + res.ref.dup,
		Metrics:   map[string]metric{},
	}
	if !out.Correct {
		// The oracle found wrong, duplicated or missing outputs at the
		// reference rate: print the verdict, then fail the command.
		emit(out)
		return 1
	}
	if cfg.traced {
		m, err := pickPerLayer(res.layers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		out.Metrics = m
	} else {
		out.Metrics = endToEnd(res)
	}
	if msg := validity(res); msg != "" {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", msg)
		return 1
	}
	emit(out)
	return 0
}

func emit(o output) {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // only float NaN/Inf can fail, and metrics are finite by construction
	}
	fmt.Println(string(b))
}

// perLayer is the per-layer set every traced run puts on its JSON line, in
// the order BENCHMARK.json lists it. Each is measured on every workload (a
// layer a workload does not have reports a zero count or ratio). The other
// layer figures — per-FN costs, socket and content-store detail, trace and
// journey costs — are printed in the report and kept in record.json.
var perLayer = []struct{ name, unit string }{
	{"io.rx_ns_per_pkt", "ns"},
	{"io.tx_ns_per_pkt", "ns"},
	{"router.handle_ns", "ns"},
	{"router.handle_nil_ns", "ns"},
	{"engine.process_ns", "ns"},
	{"engine.fns_per_pkt", "count"},
	{"telemetry.overhead_ns", "ns"},
	{"telemetry.overhead_ratio", "ratio"},
	{"guard.classify_ns", "ns"},
	{"fib.lookup_ns", "ns"},
	{"cs.hit_ratio", "ratio"},
	{"pit.aggregate_ratio", "ratio"},
	{"pit.entries_peak", "count"},
	{"ingress.queue_depth_max", "count"},
	{"ingress.shed_ratio", "ratio"},
	{"rt.allocs_per_pkt", "count"},
	{"rt.alloc_bytes_per_pkt", "bytes"},
	{"rt.gc_cycles", "count"},
	{"rt.ctx_switches_per_pkt", "count"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"ledger.residual_ns_per_pkt", "ns"},
	{"traced_cpu_ns_per_pkt", "ns"},
	{"untraced_cpu_ns_per_pkt", "ns"},
	{"tracing.overhead_ns_per_pkt", "ns"},
}

func pickPerLayer(all map[string]metric) (map[string]metric, error) {
	out := map[string]metric{}
	for _, p := range perLayer {
		m, ok := all[p.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", p.name)
		}
		if m.Unit != p.unit {
			return nil, fmt.Errorf("%s measured in %s, want %s", p.name, m.Unit, p.unit)
		}
		out[p.name] = m
	}
	return out, nil
}

// endToEndUnits is the untraced metric set on the JSON line, in
// BENCHMARK.json's order. max_rate_pps, lat_p50_us, lat_p99_us and
// loss_ratio are printed but kept off it: on a shared VM they follow the
// hypervisor's steal (see README.md), beyond any bound a gate could use.
var endToEndUnits = []struct{ name, unit string }{
	{"cpu_ns_per_pkt", "ns"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// endToEnd is the untraced metric set, identical for every workload.
func endToEnd(r *result) map[string]metric {
	return map[string]metric{
		"cpu_ns_per_pkt": {r.cpuNs, "ns"},
		"setup_s":        {median(r.setup), "s"},
		"rss_mb":         {r.rssMB, "MB"},
	}
}

// validity rejects runs whose numbers cannot be trusted: the generator ran
// late relative to what it measures. (A search that found no passing rate
// prints max_rate_pps 0; that figure is not gated.)
func validity(r *result) string {
	// The median unit must leave on time: systematic lateness (a sleeping
	// pacer) shifts the median. It is judged over the windows lat_p50_us
	// is taken from. The tail is not gated: on a VM, steal stalls the
	// generator and the router alike, and every unit's latency includes
	// its own lateness, so lat_p99_us always bounds it.
	if r.genLateQuietP50 > maxLateShare*r.p50 {
		return fmt.Sprintf("generator lateness p50 %.2fµs (quiet windows) exceeds %.0f%% of lat_p50 %.2fµs",
			r.genLateQuietP50, 100*maxLateShare, r.p50)
	}
	return ""
}

func (r *result) tracedOnly() bool { return r.layers != nil }

func report(cfg runConfig, spec workloadSpec, r *result, took time.Duration) {
	fmt.Printf("workload %s: %s\n", cfg.workload, spec.why)
	fmt.Printf("  input digest       %016x (seed %d)\n", r.digest, cfg.seed)
	fmt.Printf("  reference rate     %.0f pps for %.1fs (open loop), %d units sent\n", spec.refRate, spec.refSeconds(cfg.seconds), r.ref.sent)
	if !r.tracedOnly() {
		fmt.Printf("  max_rate_pps       %.1f pps (confirmed=%v, nominal %.0f, %d trials, limits window loss<=%.1f%% window p99<%.0fus)\n",
			r.maxRate, r.confirmed, r.search.nominal, len(r.search.trials), 100*spec.maxLoss, float64(p99LimitUs))
		for _, t := range r.search.trials {
			fmt.Printf("    trial %8.0f pps: offered %9.1f loss %.4f window loss %.4f window p99 %8.1fus pass=%v\n",
				t.nominal, t.offered, t.lossRatio(), t.winLoss, t.winP99us, spec.search().passes(t))
		}
	}
	fmt.Printf("  lat_p50_us         %.3f us (quiet windows; whole phase n=%d)\n", r.p50, r.latN)
	fmt.Printf("  lat_p90_us         %.3f us\n", r.p90)
	fmt.Printf("  lat_p99_us         %.3f us (n=%d; p99.9 %.3f us)\n", r.p99, r.latN, r.p999)
	fmt.Printf("  loss_ratio         %.6f (sent %d, delivered %d, wrong %d, duplicated %d)\n",
		r.loss, r.ref.sent, r.ref.delivered, r.ref.wrong, r.ref.dup)
	if r.ref.rcvbufDrops > 0 {
		fmt.Printf("  udp rcvbuf drops   %.0f during the reference phase\n", r.ref.rcvbufDrops)
	}
	fmt.Printf("  cpu_ns_per_pkt     %.1f ns\n", r.cpuNs)
	fmt.Printf("  quiet windows      %d of the phase's, steal shares [%s], %d latency samples\n", len(r.steal), fmtList(r.steal, "%.3f"), r.quietN)
	fmt.Printf("  setup_s            %.6f s (median of %d: %s)\n", median(r.setup), len(r.setup), fmtList(r.setup, "%.4f"))
	fmt.Printf("  rss_mb             %.2f MB\n", r.rssMB)
	fmt.Printf("  gen.late_p50_us    %.3f us (quiet windows %.3f us)\n", r.genLateP50, r.genLateQuietP50)
	fmt.Printf("  gen.late_p90_us    %.3f us\n", r.genLateP90)
	fmt.Printf("  gen.late_p99_us    %.3f us\n", r.genLateP99)
	if r.tracedOnly() {
		names := make([]string, 0, len(r.layers))
		for k := range r.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println("  per-layer metrics:")
		for _, k := range names {
			fmt.Printf("    %-28s %14.3f %s\n", k, r.layers[k].Value, r.layers[k].Unit)
		}
		printLedger(r)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  run took %.1fs\n", took.Seconds())
}

func fmtList(xs []float64, f string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s
}
