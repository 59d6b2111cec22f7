// Command diprouter runs a DIP router over a UDP overlay: each router port
// is a UDP peer, DIP packets travel as datagrams, and the forwarding tables
// are configured from flags. Together with diphost this demonstrates the
// library on real sockets rather than the simulator.
//
// Example (a one-router NDN setup):
//
//	diprouter -listen 127.0.0.1:7000 \
//	    -peer 127.0.0.1:7001 -peer 127.0.0.1:7002 \
//	    -name 0xAA000000/8=1
//
// gives the router two ports (0 → :7001, 1 → :7002) and routes content
// names under 0xAA/8 to port 1. Incoming datagrams are attributed to a port
// by their source address; datagrams from unknown sources arrive on port 0.
//
// The socket loop is Router.ServeUDP. On Linux it reads and sends with raw
// non-blocking recvmsg/sendto through the socket's RawConn, which skips the
// Go runtime's syscall entry and the monitor-thread wake-up that entry
// costs per datagram at low rates. Other platforms use the net package's
// ReadMsgUDPAddrPort/WriteToUDPAddrPort. Both behave alike: same port
// attribution, same errors in the "socket:" log lines.
//
// Flags:
//
//	-listen addr      UDP address to bind (required)
//	-peer addr        add a port sending to addr (repeatable, in port order)
//	-route32 P/L=N    route 32-bit prefix P (hex or dotted) length L to port N
//	-route128 HEX/L=N route 128-bit prefix to port N
//	-name P/L=N       route content-name prefix to port N ("local" delivers)
//	-cache N          enable an N-entry content store
//	-cscold N         add a cold tier: an N-slot file-backed arena under the
//	                  hot store (requires -cache); hot evictions spill to it
//	                  under insert-on-second-hit admission, and cold hits
//	                  are re-injected asynchronously — forwarders never
//	                  block on disk
//	-csslot BYTES     cold-tier slot payload capacity (default 2048)
//	-csreaders N      cold-tier async reader goroutines (default 2)
//	-cscold-file PATH cold arena backing file (default: unlinked temp file)
//	-secret HEX       16-byte DRKey secret enabling the OPT operations
//	-maxfns N         per-packet FN budget (security limit, §2.4)
//	-v                log every packet decision
//
// Overload hardening (the ingress guard layer every datagram crosses:
// classification, admission control, control-first queues, quarantine):
//
//	-workers N        forwarders (default 1: the socket reader is the
//	                  forwarder, running each datagram to completion in its
//	                  read buffer); N > 1 copies each datagram to one of N
//	                  forwarder goroutines, each flow pinned to one by a
//	                  hash of its FN locations
//	-queue N          per-class queue depth per forwarder (default 256); it
//	                  also sizes the socket receive buffer, which absorbs
//	                  forwarder stalls: 2N datagrams at 2 KiB, capped by
//	                  net.core.rmem_max (the granted size is logged)
//	-batch N          run-to-completion burst size: each forwarder takes up
//	                  to N packets per queue visit and runs them all before
//	                  returning (default 64; 1 = packet at a time)
//	-dispatch-shards N  flow-dispatch table size, rounded to a power of two
//	                  (default 256)
//	-admit-port R:B   per-inport token bucket: R pkts/s, burst B
//	-admit-bulk R:B   bulk-class token bucket (control class is never
//	                  limited by this flag)
//	-pitperport N     per-inport pending-interest cap (flood defense)
//	-pitshards N      PIT lock shards (power of two; scales concurrent workers)
//	-csshards N       content store lock shards (trades exact LRU for scaling)
//	-health D         log a guard health line every D (e.g. 10s) and dump
//	                  new quarantine captures in dipdump-ready form
//
// Control plane (in-fabric route exchange):
//
//	-speaker          run the route-exchange speaker: originate this
//	                  router's configured routes, advertise them to every
//	                  peer inside DIP control packets (F_ctl FN, control
//	                  class), and install what peers advertise through
//	                  batched FIB transactions; withdrawn or silent
//	                  neighbors' routes age out via soft state
//	-speaker-refresh D  advertisement refresh period (default 5s)
//	-speaker-hold D   soft-state hold time before a silent neighbor's
//	                  routes expire (default 3x refresh)
//
// Observability (the metrics/trace/pprof listener):
//
//	-metrics-addr A   serve Prometheus text on A/metrics, sampled packet
//	                  traces on A/trace (dipdump-ready), and Go profiling
//	                  under A/debug/pprof/
//	-trace-every N    sample every Nth packet's FN journey into the trace
//	                  ring (0 = tracing off; sampling keeps the unsampled
//	                  forwarding path allocation-free)
//	-trace-ring N     trace ring capacity in records (default 1024)
//	-journey-every N  emit a cross-hop journey span for every Nth packet
//	                  onto A/journeys (0 = off); a central collector (or
//	                  dipdump) stitches spans from every process
//	-journey-ring N   journey span ring capacity (default 4096)
//	-int-every N      in-band telemetry: register the F_tel stamping op (so
//	                  transit packets carrying a telemetry region get this
//	                  hop's record) and, at the delivering edge, strip every
//	                  Nth telemetry-carrying packet into a postcard collector
//	                  exported as dip_int_* (0 = off)
//	-int-slots N      telemetry slot capacity for packets this router
//	                  originates (cold-tier re-injects; default 8)
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/bootstrap"
	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/inband"
	"dip/internal/journey"
	"dip/internal/nhash"
	"dip/internal/pit"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		listen    = flag.String("listen", "", "UDP address to bind")
		cacheSize = flag.Int("cache", 0, "content store capacity (0 = off)")
		csCold    = flag.Int("cscold", 0, "cold-tier arena slots (0 = no cold tier; requires -cache)")
		csSlot    = flag.Int("csslot", 0, "cold-tier slot payload bytes (0 = default 2048)")
		csReaders = flag.Int("csreaders", 2, "cold-tier async reader goroutines")
		csFile    = flag.String("cscold-file", "", "cold arena backing file (empty = unlinked temp)")
		secretHex = flag.String("secret", "", "16-byte hex DRKey secret (enables OPT ops)")
		maxFNs    = flag.Int("maxfns", 0, "per-packet FN budget (0 = wire max)")
		verbose   = flag.Bool("v", false, "log packets")
		workers   = flag.Int("workers", 1, "forwarders (1 = the socket reader is the forwarder)")
		queueLen  = flag.Int("queue", 256, "per-class ingress queue depth (also sizes the socket receive buffer)")
		batchSize = flag.Int("batch", 0, "run-to-completion burst size per forwarder (0 = default 64)")
		dispatch  = flag.Int("dispatch-shards", 0, "flow-dispatch table size, power of two (0 = default 256)")
		admitPort = flag.String("admit-port", "", "per-inport admission rate:burst (pkts/s)")
		admitBulk = flag.String("admit-bulk", "", "bulk-class admission rate:burst (pkts/s)")
		pitCap    = flag.Int("pitperport", 0, "per-inport pending-interest cap (0 = off)")
		pitShards = flag.Int("pitshards", 0, "PIT lock shards, rounded to a power of two (0 = default)")
		csShards  = flag.Int("csshards", 0, "content store lock shards (0 = 1 shard, exact LRU)")
		healthDur = flag.Duration("health", 0, "guard health log period (0 = off)")
		speaker   = flag.Bool("speaker", false, "run the in-fabric route-exchange speaker over the peer ports")
		speakRef  = flag.Duration("speaker-refresh", 5*time.Second, "route advertisement refresh period")
		speakHold = flag.Duration("speaker-hold", 0, "soft-state hold time (0 = 3x refresh)")
		metricsAt = flag.String("metrics-addr", "", "HTTP address for /metrics, /trace and /debug/pprof (empty = off)")
		traceN    = flag.Int("trace-every", 0, "trace every Nth packet's FN journey (0 = off)")
		traceRing = flag.Int("trace-ring", 0, "trace ring capacity in records (0 = default)")
		journeyN  = flag.Int("journey-every", 0, "emit a journey span for every Nth packet (0 = off)")
		journeyRg = flag.Int("journey-ring", 0, "journey span ring capacity (0 = default)")
		intEvery  = flag.Int("int-every", 0, "stamp F_tel and collect every Nth delivered telemetry postcard (0 = off)")
		intSlots  = flag.Int("int-slots", 8, "telemetry slot capacity for locally originated packets")
		peers     stringList
		routes32  stringList
		routes128 stringList
		names     stringList
	)
	flag.Var(&peers, "peer", "peer UDP address (one per port, in order)")
	flag.Var(&routes32, "route32", "32-bit route prefix/len=port")
	flag.Var(&routes128, "route128", "128-bit route hexprefix/len=port")
	flag.Var(&names, "name", "content-name route hexprefix/len=port|local")
	flag.Parse()

	if *listen == "" {
		flag.Usage()
		os.Exit(2)
	}
	laddr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		log.Fatalf("listen address: %v", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		log.Fatalf("bind: %v", err)
	}
	defer conn.Close()

	state := dip.NewNodeState()
	var tiered *dip.TieredStore
	switch {
	case *csCold > 0:
		if *cacheSize <= 0 {
			log.Fatalf("-cscold needs a hot tier; add -cache N")
		}
		shards := *csShards
		if shards < 1 {
			shards = 1
		}
		readers := *csReaders
		if readers < 1 {
			readers = 1
		}
		var err error
		tiered, err = state.EnableTieredCache(*cacheSize, shards, dip.TieredConfig{
			Path:     *csFile,
			Slots:    *csCold,
			SlotSize: *csSlot,
			Readers:  readers,
		})
		if err != nil {
			log.Fatalf("-cscold: %v", err)
		}
		defer tiered.Close()
	case *cacheSize > 0:
		if *csShards > 1 {
			state.EnableCacheSharded(*cacheSize, *csShards)
		} else {
			state.EnableCache(*cacheSize)
		}
	}
	if *pitCap > 0 || *pitShards > 0 {
		var popts []pit.Option[uint32]
		if *pitCap > 0 {
			popts = append(popts, pit.WithPerPortCap[uint32](*pitCap))
		}
		if *pitShards > 0 {
			popts = append(popts, pit.WithShards[uint32](*pitShards))
		}
		state.PIT = pit.New[uint32](popts...)
	}
	if *secretHex != "" {
		secret, err := hex.DecodeString(*secretHex)
		if err != nil {
			log.Fatalf("secret: %v", err)
		}
		sv, err := dip.NewSecret(*listen, secret)
		if err != nil {
			log.Fatalf("secret: %v", err)
		}
		state.EnableOPT(sv, dip.MAC2EM, [16]byte{}, 0)
	}
	for _, r := range routes32 {
		if err := addRoute32(state, r); err != nil {
			log.Fatalf("-route32 %q: %v", r, err)
		}
	}
	for _, r := range routes128 {
		if err := addRoute128(state, r); err != nil {
			log.Fatalf("-route128 %q: %v", r, err)
		}
	}
	for _, r := range names {
		if err := addNameRoute(state, r); err != nil {
			log.Fatalf("-name %q: %v", r, err)
		}
	}

	metrics := &telemetry.Metrics{}
	var tracer *dip.TraceRecorder
	if *traceN > 0 {
		tracer = dip.NewTraceRecorder(metrics, *traceN, *traceRing)
	}
	// speakerAgent and intCollector are assigned (if their flags are set)
	// before the socket read loop starts, so the delivery path below never
	// races the assignments.
	var speakerAgent *bootstrap.Speaker
	var intCollector *inband.Collector
	var intSeen atomic.Int64
	// dataClock is shared between the serve layer (which stamps admission
	// time into the exec context) and the F_tel module (which reads it back
	// out), so stamped per-hop latencies are admission→execution.
	routerStart := time.Now()
	dataClock := func() time.Duration { return time.Since(routerStart) }
	r := dip.NewRouter(state.OpsConfig(), dip.RouterOptions{
		Name:    *listen,
		Limits:  dip.Limits{MaxFNs: *maxFNs},
		Metrics: metrics,
		Trace:   tracer,
		LocalDelivery: func(pkt []byte, inPort int) {
			if speakerAgent != nil {
				if v, err := dip.ParsePacket(pkt); err == nil && v.NextHeader() == profiles.NHRouteExchange {
					if err := speakerAgent.Handle(v.Payload(), inPort); err != nil && *verbose {
						log.Printf("route exchange from port %d: %v", inPort, err)
					}
					return
				}
			}
			if intCollector != nil {
				if v, err := dip.ParsePacket(pkt); err == nil {
					collectPostcard(intCollector, &intSeen, *intEvery, *listen, v, pkt)
				}
			}
			if *verbose {
				log.Printf("delivered locally: %d bytes from port %d", len(pkt), inPort)
			}
		},
	})

	if *intEvery > 0 {
		intCollector = inband.NewCollector(inband.Config{})
		hopID := uint32(nhash.Bytes([]byte(*listen)))
		r.Registry().MustRegister(extops.NewTelWith(extops.TelConfig{
			HopID:   hopID,
			ClockNs: func() int64 { return int64(dataClock()) },
			Epoch: func() uint32 {
				return state.FIB32.Epoch() + state.FIB128.Epoch() + state.NameFIB.Epoch()
			},
		}))
		log.Printf("in-band telemetry: stamping as hop %#08x, collecting 1-in-%d postcards", hopID, *intEvery)
	}

	if *speaker {
		if *speakRef <= 0 {
			log.Fatalf("-speaker-refresh must be positive")
		}
		start := time.Now()
		hold := *speakHold
		if hold <= 0 {
			hold = 3 * *speakRef
		}
		var splog func(string, ...any)
		if *verbose {
			splog = log.Printf
		}
		speakerAgent = bootstrap.NewSpeaker(bootstrap.SpeakerConfig{
			Name:    *listen,
			FIB32:   state.FIB32,
			FIB128:  state.FIB128,
			NameFIB: state.NameFIB,
			Catalog: bootstrap.CatalogOf(r.Registry()),
			Now:     func() time.Duration { return time.Since(start) },
			HoldFor: hold,
			Log:     splog,
		})
		log.Printf("speaker: originating %d configured routes, refresh %v",
			speakerAgent.OriginateFromFIBs(), *speakRef)
	}

	// Journey spans wrap whatever recorder the router got (trace sampler or
	// bare metrics) — the tap forwards everything to it, so /metrics and
	// /trace are unchanged while /journeys fills with spans.
	var journeys *dip.JourneyEmitter
	if *journeyN > 0 {
		journeys = dip.NewJourneyEmitter(*journeyRg)
		var inner dip.Recorder = metrics
		if tracer != nil {
			inner = tracer
		}
		r.SetRecorder(dip.NewRouterJourneyTap(*listen, journeys, inner, *journeyN, nil))
	}

	if *metricsAt != "" {
		src := dip.MetricsSource{
			Node:     *listen,
			Metrics:  metrics,
			Health:   r.Health,
			Trace:    tracer,
			Journeys: journeys,
		}
		// Interface fields must stay nil-free: a typed nil *pit.Table or
		// *cs.Store inside the interface would be dereferenced on scrape.
		if state.PIT != nil {
			src.PIT = state.PIT
		}
		if state.ContentStore != nil {
			src.CS = state.ContentStore
		}
		if tiered != nil {
			src.CSTier = tiered.Stats
		}
		if speakerAgent != nil {
			src.Routes = speakerAgent.Stats
		}
		if intCollector != nil {
			src.INT = intCollector.Stats
		}
		bound, _, err := dip.ServeMetrics(*metricsAt, src)
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		log.Printf("metrics on http://%v/metrics (trace: /trace, journeys: /journeys, pprof: /debug/pprof/)", bound)
	}

	peerAddrs := make([]netip.AddrPort, len(peers))
	for i, p := range peers {
		raddr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			log.Fatalf("-peer %q: %v", p, err)
		}
		ap := raddr.AddrPort()
		peerAddrs[i] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}

	var policy dip.AdmissionPolicy
	limited := false
	if *admitPort != "" {
		rate, err := parseRate(*admitPort)
		if err != nil {
			log.Fatalf("-admit-port: %v", err)
		}
		policy.PerPort, limited = rate, true
	}
	if *admitBulk != "" {
		rate, err := parseRate(*admitBulk)
		if err != nil {
			log.Fatalf("-admit-bulk: %v", err)
		}
		policy.PerClass[dip.ClassBulk], limited = rate, true
	}
	var admission *dip.Admission
	if limited {
		admission = dip.NewAdmission(policy, nil)
	}
	serveCfg := dip.ServeConfig{
		Workers:        *workers,
		HighDepth:      *queueLen,
		LowDepth:       *queueLen,
		Batch:          *batchSize,
		DispatchShards: *dispatch,
		Admission:      admission,
		Clock:          dataClock,
		OnSocketError:  func(err error) { log.Printf("socket: %v", err) },
	}
	srv := r.ServeUDP(conn, peerAddrs, serveCfg)
	defer srv.Close()
	if *healthDur > 0 {
		go watchHealth(r, srv.Ingress(), *healthDur)
	}

	// ServeUDP attached peer i as port i. Every peer port is a
	// route-exchange adjacency: the speaker's messages ride DIP control
	// packets straight over the socket (not through the forwarding
	// pipeline — they are this hop's own control traffic, not transit).
	for i, peer := range peerAddrs {
		if speakerAgent != nil {
			speakerAgent.AddNeighbor(i, func(msg []byte) {
				pkt, err := dip.BuildPacket(profiles.RouteExchange(), msg)
				if err != nil {
					return
				}
				if _, err := conn.WriteToUDPAddrPort(pkt, peer); err != nil && *verbose {
					log.Printf("route exchange to %v: %v", peer, err)
				}
			})
		}
		if *verbose {
			log.Printf("port %d -> %v", i, peer)
		}
	}
	if speakerAgent != nil {
		go func() {
			for range time.Tick(*speakRef) {
				speakerAgent.Refresh()
			}
		}()
	}

	// Cold-tier completions re-enter through the ingress like datagrams:
	// the synthesized data packet consumes the parked PIT entry and
	// replicates to the requesting ports, and the cache insert promotes the
	// payload back to the hot tier. The cold index starts empty, so no cold
	// read can complete before this callback is installed.
	if tiered != nil {
		tiered.SetReinject(func(cname uint32, data []byte, start, end int64) {
			profile := dip.NDNDataProfile(cname)
			if *intEvery > 0 && *intSlots > 0 {
				// Locally originated packets get a fresh telemetry region:
				// this hop and everything downstream stamp into it.
				profile = profiles.WithTelemetry(profile, *intSlots)
			}
			pkt, err := dip.BuildPacket(profile, data)
			if err != nil {
				return
			}
			if journeys != nil {
				journeys.AddSpan(journey.Span{
					Trace:   journey.TraceOf(pkt),
					Kind:    journey.SpanCSCold,
					Node:    *listen,
					Start:   start,
					End:     end,
					Name:    cname,
					HasName: true,
					Proto:   "ndn-data",
				})
			}
			if *verbose {
				log.Printf("cold read %#08x re-injected (%d bytes, %v)", cname, len(data), time.Duration(end-start))
			}
			srv.Inject(pkt, 0)
		})
	}

	log.Printf("diprouter listening on %v with %d ports, %d forwarder(s), socket receive buffer %d bytes",
		laddr, r.NumPorts(), max(*workers, 1), srv.ReadBuffer())
	srv.Wait()
}

// collectPostcard is the delivering-edge telemetry termination: sample every
// Nth telemetry-carrying delivered packet, decode its hop records into a
// postcard, and zero the region so local consumers never see fabric state.
func collectPostcard(c *inband.Collector, seen *atomic.Int64, every int, node string, v core.View, pkt []byte) {
	region, off, ok := profiles.TelemetryRegion(v)
	if !ok {
		return
	}
	if every > 1 && (seen.Add(1)-1)%int64(every) != 0 {
		return
	}
	hops, overflow, err := extops.DecodeTel(region)
	if err != nil {
		c.CountDecodeError()
		return
	}
	// Fold the leading FN key into the flow identity so an interest and its
	// data reply (same name bytes, opposite paths) stay distinct flows.
	flow := inband.FlowOf(v.Locations(), off) ^ (uint64(v.FN(0).Key)+1)*0x9E3779B97F4A7C15
	c.Add(inband.Postcard{
		Flow:     flow,
		Trace:    uint64(journey.TraceOf(pkt)),
		Node:     node,
		At:       time.Now().UnixNano(),
		Proto:    journey.ProtoOf(v),
		Hops:     hops,
		Overflow: overflow,
	})
	for i := range region {
		region[i] = 0
	}
}

// parseRate reads "rate:burst" (packets per second, burst allowance).
func parseRate(spec string) (dip.AdmissionRate, error) {
	rateStr, burstStr, ok := strings.Cut(spec, ":")
	if !ok {
		return dip.AdmissionRate{}, fmt.Errorf("want rate:burst, got %q", spec)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return dip.AdmissionRate{}, fmt.Errorf("rate: %v", err)
	}
	burst, err := strconv.ParseFloat(burstStr, 64)
	if err != nil {
		return dip.AdmissionRate{}, fmt.Errorf("burst: %v", err)
	}
	return dip.AdmissionRate{PerSec: rate, Burst: burst}, nil
}

// watchHealth periodically logs the guard snapshot and streams any new
// quarantine captures to stderr in dipdump-ready form (pipe them into
// `dipdump` to dissect the poison packets).
func watchHealth(r *dip.Router, in *dip.Ingress, every time.Duration) {
	var dumped int64
	for range time.Tick(every) {
		if h, ok := r.Health(); ok {
			log.Printf("guard: %s", h)
		}
		for _, c := range in.Quarantine().Snapshot() {
			if c.Seq >= dumped {
				fmt.Fprint(os.Stderr, c.String())
				dumped = c.Seq + 1
			}
		}
	}
}

// parseTarget splits "prefix/len=port" and resolves "local".
func parseTarget(spec string) (prefix string, plen int, port int, local bool, err error) {
	eq := strings.LastIndex(spec, "=")
	sl := strings.LastIndex(spec, "/")
	if eq < 0 || sl < 0 || sl > eq {
		return "", 0, 0, false, fmt.Errorf("want prefix/len=port")
	}
	prefix = spec[:sl]
	plen, err = strconv.Atoi(spec[sl+1 : eq])
	if err != nil {
		return "", 0, 0, false, fmt.Errorf("prefix length: %v", err)
	}
	target := spec[eq+1:]
	if target == "local" {
		return prefix, plen, 0, true, nil
	}
	port, err = strconv.Atoi(target)
	return prefix, plen, port, false, err
}

func parse32(s string) (uint32, error) {
	if strings.Contains(s, ".") {
		var a, b, c, d int
		if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
			return 0, err
		}
		return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d), nil
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 32)
	return uint32(v), err
}

func addRoute32(state *dip.NodeState, spec string) error {
	prefix, plen, port, local, err := parseTarget(spec)
	if err != nil {
		return err
	}
	key, err := parse32(prefix)
	if err != nil {
		return err
	}
	nh := dip.NextHop{Port: port}
	if local {
		nh = dip.Local
	}
	return state.FIB32.AddUint32(key, plen, nh)
}

func addRoute128(state *dip.NodeState, spec string) error {
	prefix, plen, port, local, err := parseTarget(spec)
	if err != nil {
		return err
	}
	key, err := hex.DecodeString(strings.TrimPrefix(prefix, "0x"))
	if err != nil {
		return err
	}
	if len(key) > 16 {
		return fmt.Errorf("prefix %d bytes, max 16", len(key))
	}
	key = append(key, make([]byte, 16-len(key))...)
	nh := dip.NextHop{Port: port}
	if local {
		nh = dip.Local
	}
	return state.FIB128.Add(key, plen, nh)
}

func addNameRoute(state *dip.NodeState, spec string) error {
	prefix, plen, port, local, err := parseTarget(spec)
	if err != nil {
		return err
	}
	key, err := parse32(prefix)
	if err != nil {
		return err
	}
	nh := dip.NextHop{Port: port}
	if local {
		nh = dip.Local
	}
	return state.NameFIB.AddUint32(key, plen, nh)
}
