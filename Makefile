GO ?= go

.PHONY: build test check race vet crossbuild fuzz soak bench benchrace metricssmoke journeysmoke burstsmoke udpsmoke ccsmoke cssmoke churnsmoke intsmoke benchguard clean

build:
	$(GO) build ./...

# Fast tier-1 gate: what CI runs on every push.
test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The socket dataplane's raw recvmsg/sendto path is Linux-only (and not
# linux/386); build the net-package fallback the other platforms use.
# linux/386 builds the router package only: cmd/dipbench does not compile
# on 32-bit targets.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./internal/router/

# Full pre-merge gate: static analysis, the race detector, a race-mode smoke
# of the parallel hot-path benchmarks, a fuzz smoke sweep over every fuzz
# target, a live scrape of the metrics endpoint, a smoke of the batched
# dataplane (ordering/zero-alloc tests plus a short scaling run), the
# congestion-control smoke (fleet fairness + chaos acceptance + E19 row),
# the tiered content-store smoke (never-block acceptance + E20 sweep), the
# control-plane smoke (route-exchange reconvergence scenarios + a
# scaled-down E21 churn run with its built-in oracle), and the in-band
# telemetry smoke (digest oracles + live dip_int_* scrape), the socket
# dataplane smoke (loopback ServeUDP harness under -race + its 0-alloc pin),
# and a cross-build of the platforms without the raw socket path.
check: vet crossbuild race benchrace fuzz metricssmoke journeysmoke burstsmoke udpsmoke ccsmoke cssmoke churnsmoke intsmoke

# Short benchstat-friendly run of the forwarding hot-path benchmarks
# (compare runs with: make bench > old.txt; ...; make bench > new.txt;
# benchstat old.txt new.txt). Longer runs: make bench BENCHTIME=2s.
BENCHTIME ?= 100ms
bench:
	$(GO) test -run '^$$' -bench 'FIBLookup|FIBTxnCommit|ShardedPIT|PITSequential' \
		-benchtime $(BENCHTIME) -count 5 ./internal/fib/ ./internal/pit/
	$(GO) test -run '^$$' -bench 'Fig2|Ablation_FIBScale|ZeroAlloc' \
		-benchtime $(BENCHTIME) -count 5 .

# Race-mode smoke of the concurrent benchmarks: a handful of iterations is
# enough for the detector to see lock-free lookups racing route churn and
# sharded tables racing each other.
benchrace:
	$(GO) test -race -run '^$$' -bench 'FIBLookupParallel|ShardedPITParallel' \
		-benchtime 50x -count 1 ./internal/fib/ ./internal/pit/

# Smoke sweep over every fuzz target in the tree, discovered with `go test
# -list` so new fuzzers join automatically (longer runs: make fuzz
# FUZZTIME=5m).
FUZZTIME ?= 5s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# Metrics-endpoint smoke: boot a real diprouter with the observability
# listener, push traffic through it with diphost (one routable packet, one
# no-route drop), scrape /metrics, validate the Prometheus text grammar,
# check the key series exist, and make sure pprof answers. Then run a
# congestion-controlled fetch against the router (whose interests have no
# NDN route, so they retransmit and dead-letter) and assert the fetcher's
# own dip_fetch_* series are present and counting.
METRICS_PORT ?= 17490
FETCH_METRICS_PORT ?= 17491
metricssmoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid $$fpid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diprouter ./cmd/diprouter; \
	$(GO) build -o $$tmp/diphost ./cmd/diphost; \
	$$tmp/diprouter -listen 127.0.0.1:17400 -peer 127.0.0.1:17401 \
		-route32 10.0.0.0/8=0 -cache 16 \
		-metrics-addr 127.0.0.1:$(METRICS_PORT) -trace-every 1 \
		>$$tmp/router.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 10.0.0.9 \
		-to 127.0.0.1:17400 -payload smoke >/dev/null; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 99.9.9.9 \
		-to 127.0.0.1:17400 >/dev/null; \
	sleep 0.3; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/metrics > $$tmp/scrape; \
	awk '!/^#/ && !/^$$/ && $$0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$$/ \
		{ print "bad exposition line: " $$0; bad=1 } END { exit bad }' $$tmp/scrape; \
	for s in 'dip_packets_received_total' 'dip_packets_total{.*verdict="forward"' \
		'dip_drops_total{.*reason="no-route"' 'dip_op_latency_ns_bucket{.*op="F_32_match".*le=' \
		'dip_pit_entries' 'dip_cs_entries' 'dip_trace_sampled_total'; do \
		grep -q "^$$s" $$tmp/scrape || { echo "missing series $$s"; cat $$tmp/scrape; exit 1; }; \
	done; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/trace >/dev/null; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/debug/pprof/ >/dev/null; \
	$$tmp/diphost -mode fetch -name 0xAA000001 -segs 2 -maxretx 2 -init-rto 100ms \
		-to 127.0.0.1:17400 -listen 127.0.0.1:17402 \
		-metrics-addr 127.0.0.1:$(FETCH_METRICS_PORT) -linger 10s \
		>$$tmp/fetch.log 2>&1 & fpid=$$!; \
	sleep 2; \
	curl -sf http://127.0.0.1:$(FETCH_METRICS_PORT)/metrics > $$tmp/fetchscrape; \
	awk '!/^#/ && !/^$$/ && $$0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$$/ \
		{ print "bad exposition line: " $$0; bad=1 } END { exit bad }' $$tmp/fetchscrape; \
	for s in 'dip_fetch_pending' 'dip_fetch_completed_total' 'dip_fetch_cwnd{' \
		'dip_fetch_rto_ns' 'dip_fetch_cwnd_cuts_total'; do \
		grep -q "^$$s" $$tmp/fetchscrape || { echo "missing series $$s"; cat $$tmp/fetchscrape; exit 1; }; \
	done; \
	for s in 'dip_fetch_retransmits_total' 'dip_fetch_deadletter_total'; do \
		grep "^$$s" $$tmp/fetchscrape | awk '{ exit !($$NF > 0) }' \
			|| { echo "series $$s never counted"; cat $$tmp/fetchscrape; exit 1; }; \
	done; \
	echo "metricssmoke: exposition valid, key series present, fetch counters live, pprof live"

# Journey-stitching smoke: run the canned 3-hop scenario with journey
# tracing on and check the collector stitched at least one complete journey
# that crossed all three routers, end to end, with the expected hop count.
journeysmoke:
	@set -e; \
	out=$$($(GO) run ./cmd/diptopo -q -journeys testdata/journey3hop.topo); \
	echo "$$out" | grep -q 'routers=3 complete=true' \
		|| { echo "journeysmoke: no complete 3-router journey"; echo "$$out"; exit 1; }; \
	n=$$(echo "$$out" | grep -c 'routers=3 complete=true'); \
	echo "journeysmoke: $$n complete 3-hop journeys stitched"

# Batched-dataplane smoke: the flow-pinning ordering property, burst
# lifecycle/chaos tests, the zero-alloc pins, and a short run of the E18
# multicore scaling experiment (full version: make benchguard after
# regenerating BENCH_6.json).
burstsmoke:
	$(GO) test -run 'FlowPinning|FlowDispatch|Burst' ./internal/router/ .
	@set -e; out=$$($(GO) run ./cmd/dipbench -experiment burst -rounds 5); \
	echo "$$out"; echo "$$out" | grep -q 'speedup' \
		|| { echo "burstsmoke: scaling run produced no speedup line"; exit 1; }

# Socket dataplane smoke: the loopback ServeUDP harness with the reader as
# the forwarder and with two forwarder goroutines, under the race detector
# (exact egress bytes, per-flow order, no loss or duplication, port
# attribution incl. dual-stack and an IPv6 peer, Inject while the reader
# blocks, stall visibility, zero-length datagrams, an unaddressable peer,
# Wait after the caller closes the socket), the raw path's sockaddr codec,
# plus the 0-alloc pin of one datagram read → forward → send.
udpsmoke:
	$(GO) test -race -count=1 -run 'ServeUDP|Sockaddr' ./internal/router/
	$(GO) test -count=1 -run 'TestZeroAllocServeUDP' .

# Congestion-control smoke: the fleet smoke (every object completes, zero
# dead letters, Jain >= 0.9), the chaos acceptance tests (adaptive beats
# blind through a seeded loss window; journeys attribute the latency;
# flight recorder captures cwnd cuts; deterministic), and one E19 fleet
# run, checking the adaptive row reports goodput.
ccsmoke:
	$(GO) test -run 'TestFleetCCSmoke|TestFleetAdaptiveBeatsBlind|TestCCChaos' ./internal/workload/ .
	@set -e; out=$$($(GO) run ./cmd/dipbench -experiment fetchcc); \
	echo "$$out"; echo "$$out" | grep -q '^  aimd .*bps' \
		|| { echo "ccsmoke: E19 run produced no aimd goodput row"; exit 1; }

# Tiered content-store smoke: the store/arena/tier unit and race tests
# under -race (copy-out reads racing refreshing and recycling Puts), the
# router's content-store tests under -race (cache replies from two
# forwarders and from parallel waves while names are re-inserted), the
# never-block acceptance pins (cold read gated in flight while the hot
# path keeps serving; interest aggregation; metrics surface), the
# content-store zero-alloc pins (hot and tiered hits, copy-out, Put into
# a full store, a cache-hit reply through the burst path), the cscold=
# DSL scenario, and a short E20 catalog sweep checking per-tier hit
# ratios shift while hot latency holds.
cssmoke:
	$(GO) test -race -count=1 ./internal/cs/
	$(GO) test -race -count=1 -run 'CacheRace|TestCacheReply' ./internal/router/
	$(GO) test -count=1 -run 'TestColdReadNeverBlocksForwarder|TestColdInterestAggregation|TestTieredMetricsExported|TestZeroAllocTieredHotHit|TestZeroAllocContentStore|TestZeroAllocCacheHitReply' .
	$(GO) test -run 'TestColdTierScenario' ./internal/topo/
	@set -e; out=$$($(GO) run ./cmd/dipbench -experiment cstier -trials 200 -rounds 5); \
	echo "$$out"; echo "$$out" | grep -q '^  65536 ' \
		|| { echo "cssmoke: E20 sweep missing the 16x catalog row"; exit 1; }

# Control-plane smoke: the route-exchange convergence and fault scenarios
# (link kill -> triggered-withdraw reconvergence; silent death -> hold-timer
# recovery), the churn package's race-exercised harness tests, and a
# scaled-down E21 churn run — the run hard-fails if the harness's oracle
# finds the tables desynchronized from the storm bookkeeping.
churnsmoke:
	$(GO) test -run 'TestSpeakers|TestLinkKill|TestSilentLinkDeath|TestLinkUp' ./internal/topo/
	$(GO) test -race -short ./internal/churn/ ./internal/bootstrap/
	@set -e; out=$$($(GO) run ./cmd/dipbench -experiment churn -churn-scale 0.02); \
	echo "$$out"; echo "$$out" | grep -q 'jitter ratio' \
		|| { echo "churnsmoke: churn run produced no jitter line"; exit 1; }

# In-band telemetry smoke: the topo-level oracles (every delivered packet's
# hop digest equals the FIB-dictated path; diamond reconvergence attributed
# with the exact old/new hop sequences; INT↔journey cross-correlation), a
# diptopo run of the int= scenario checking the collector summary and the
# per-link heatmap render, then a live diprouter with -int-every: a
# telemetry-stamped packet is pushed through it (diphost -tel) and the
# scrape must carry the dip_int_* families plus a counting F_tel op series.
INT_METRICS_PORT ?= 17492
intsmoke:
	$(GO) test -run 'TestINT' ./internal/topo/
	@set -e; out=$$($(GO) run ./cmd/diptopo -q testdata/int3hop.topo); \
	echo "$$out" | grep -q 'in-band telemetry: postcards=5 overflows=0 flows=3 changes=0 loops=0' \
		|| { echo "intsmoke: collector summary wrong"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'link latency heatmap' \
		|| { echo "intsmoke: no heatmap"; echo "$$out"; exit 1; }; \
	echo "intsmoke: digests match, heatmap rendered"
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diprouter ./cmd/diprouter; \
	$(GO) build -o $$tmp/diphost ./cmd/diphost; \
	$$tmp/diprouter -listen 127.0.0.1:17410 -peer 127.0.0.1:17411 \
		-route32 10.0.0.0/8=0 -int-every 1 -int-slots 8 \
		-metrics-addr 127.0.0.1:$(INT_METRICS_PORT) \
		>$$tmp/router.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 10.0.0.9 \
		-to 127.0.0.1:17410 -tel 8 -payload intsmoke >/dev/null; \
	sleep 0.3; \
	curl -sf http://127.0.0.1:$(INT_METRICS_PORT)/metrics > $$tmp/scrape; \
	for s in 'dip_int_postcards_total' 'dip_int_path_changes_total' \
		'dip_int_loops_total' 'dip_int_expected_mismatch_total'; do \
		grep -q "^$$s" $$tmp/scrape || { echo "missing series $$s"; cat $$tmp/scrape; exit 1; }; \
	done; \
	grep '^dip_op_latency_ns_count{.*op="F_tel"' $$tmp/scrape | awk '{ exit !($$NF > 0) }' \
		|| { echo "F_tel never executed on the live router"; cat $$tmp/scrape; exit 1; }; \
	echo "intsmoke: dip_int_* families live, F_tel stamping on the wire path"

# Hot-path benchmark regression gate: compare this PR's dipbench records
# against the previous baseline (see scripts/benchguard.sh for knobs).
benchguard:
	sh scripts/benchguard.sh BENCH_10.json BENCH_9.json 15

# Long-running soak and heavy-chaos tests are skipped under -short; this
# target runs everything, including them.
soak:
	$(GO) test -race -count=1 ./...

clean:
	$(GO) clean ./...
