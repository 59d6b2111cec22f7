package main

import "time"

// workloadSpec fixes one workload's rates and limits. The reference rates
// sit well below the seed's knee on a 2-vCPU VM; the latency limits bound
// the high percentile a rate-search trial may reach before it fails.
type workloadSpec struct {
	why     string
	refRate float64 // units/s offered in the reference phase
	maxLoss float64
	start   float64 // first rate of the search (units/s)
	ceiling float64
	trial   time.Duration
	run     func(runConfig, workloadSpec) (*result, error)
}

var workloads = map[string]workloadSpec{
	"wire-ip": {
		why:     "real diprouter on loopback: socket syscalls, per-packet copy and allocation, and wake-ups sit on the blocking path",
		refRate: 5000,
		maxLoss: 0.01,
		start:   30000,
		ceiling: 200000,
		trial:   time.Second,
		run:     runWire,
	},
	"ndn-zipf": {
		why:     "in-process stateful NDN: F_FIB/F_PIT, content-store hits and evictions, PIT aggregation and the always-on telemetry recorder dominate",
		refRate: 30000,
		maxLoss: 0.001,
		start:   120000,
		ceiling: 2000000,
		trial:   500 * time.Millisecond,
		run: func(cfg runConfig, spec workloadSpec) (*result, error) {
			app, err := newNDNApp(cfg.seed)
			if err != nil {
				return nil, err
			}
			return runInproc(cfg, spec, app)
		},
	},
	"secure-int": {
		why:     "in-process NDN+OPT with in-band telemetry: 2EM MAC FNs, F_tel stamping and the sampled trace and journey views dominate",
		refRate: 30000,
		maxLoss: 0.001,
		start:   60000,
		ceiling: 2000000,
		trial:   500 * time.Millisecond,
		run: func(cfg runConfig, spec workloadSpec) (*result, error) {
			app, err := newSecureApp(cfg.seed)
			if err != nil {
				return nil, err
			}
			return runInproc(cfg, spec, app)
		},
	},
}

// Search limits shared by every workload: a trial fails when its median
// slice's p99 reaches p99LimitUs, and the search makes at most maxTrials
// trials. A run is invalid when the generator's median lateness exceeds
// maxLateShare of lat_p50_us.
const (
	p99LimitUs   = 50000
	maxTrials    = 14
	maxLateShare = 0.1
)

// Phase split of --seconds: a warm-up, the reference phase, then the rate
// search (whose trial count bounds it).
const (
	warmFrac = 0.05
	refFrac  = 0.5
)

func (s workloadSpec) refSeconds(total float64) float64  { return refFrac * total }
func (s workloadSpec) warmSeconds(total float64) float64 { return warmFrac * total }

func (s workloadSpec) search() searchSpec {
	return searchSpec{
		start:     s.start,
		ceiling:   s.ceiling,
		step:      1.25,
		precision: 1.02,
		maxLoss:   s.maxLoss,
		p99Limit:  p99LimitUs,
		trial:     s.trial,
		maxTrials: maxTrials,
	}
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
