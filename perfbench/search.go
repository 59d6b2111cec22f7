package main

import (
	"math"
	"time"
)

// trialResult is the outcome of one open-loop trial at a fixed offered rate.
type trialResult struct {
	// offered is the measured offered rate: units sent ÷ the span from the
	// first due time to the last send.
	nominal   float64 // the rate the trial was asked to offer
	offered   float64
	sent      int
	delivered int // units delivered correctly, exactly once
	wrong     int // corrupted, misrouted or unsolicited outputs
	dup       int // outputs delivered more than once
	// winLoss and winP99us are the medians over trialWindows equal slices
	// of the trial (by due time) of each slice's loss share and p99
	// latency: what the rate sustains outside a transient VM stall.
	winLoss  float64
	winP99us float64
	steal    float64 // share of the VM's CPU time stolen during the trial
	// rcvbufDrops is the host's UDP receive-buffer overflow count during a
	// wire-ip phase: where lost datagrams went.
	rcvbufDrops float64
	// The pacer and per-unit outcomes in due order, for the reference
	// phase's windows.
	pacer *pacer
	got   []uint8
	latNs []float32
}

// trialWindows is how many slices a trial is judged over.
const trialWindows = 10

// judge fills r's window figures from per-unit outcomes in due order:
// got[i] is set when unit i was delivered correctly, with latency latNs[i].
func (r *trialResult) judge(got []uint8, latNs []float32) {
	n := len(got)
	if n < trialWindows {
		return
	}
	w := n / trialWindows
	losses := make([]float64, 0, trialWindows)
	p99s := make([]float64, 0, trialWindows)
	lat := make([]float64, 0, w)
	for k := 0; k < trialWindows; k++ {
		lat = lat[:0]
		for i := k * w; i < (k+1)*w; i++ {
			if got[i] != 0 {
				lat = append(lat, float64(latNs[i]))
			}
		}
		losses = append(losses, 1-float64(len(lat))/float64(w))
		if len(lat) > 0 {
			p99s = append(p99s, quantile(lat, 0.99)/1e3)
		} else {
			p99s = append(p99s, math.Inf(1))
		}
	}
	r.winLoss, r.winP99us = median(losses), median(p99s)
}

// lossRatio is (lost + wrong + duplicated) ÷ sent.
func (t trialResult) lossRatio() float64 {
	if t.sent == 0 {
		return 1
	}
	lost := t.sent - t.delivered
	return float64(lost+t.wrong+t.dup) / float64(t.sent)
}

// searchSpec fixes the rate search: where it starts, how it steps, and what
// a passing trial is.
type searchSpec struct {
	start     float64 // first offered rate (pps)
	ceiling   float64 // never offer more than this
	step      float64 // geometric up-step while trials pass, e.g. 1.25
	precision float64 // stop bisecting when fail/pass < precision, e.g. 1.02
	maxLoss   float64 // a trial passes with window loss ≤ maxLoss …
	p99Limit  float64 // … window p99 latency under this limit (µs) …
	//                   … and no wrong or duplicated output at all
	trial     time.Duration
	maxTrials int
}

func (s searchSpec) passes(r trialResult) bool {
	return r.winLoss <= s.maxLoss && r.winP99us < s.p99Limit && r.wrong == 0 && r.dup == 0
}

// searchResult is the highest confirmed passing rate and the trials made.
type searchResult struct {
	maxRate   float64 // measured offered rate of the confirming trial
	nominal   float64 // nominal rate that trial was offered at
	confirmed bool    // a repeat trial at nominal passed too
	trials    []trialResult
}

// findMaxRate steps the offered rate up geometrically until a rate fails,
// bisects in log space between the last pass and the first fail until they
// are within the precision, and confirms the answer with a repeat trial. A
// failed confirmation becomes the new failing bound and the search resumes
// one step lower. run executes one trial.
func findMaxRate(s searchSpec, run func(rate float64, d time.Duration) trialResult) searchResult {
	var res searchResult
	once := func(rate float64) (trialResult, bool) {
		r := run(rate, s.trial)
		r.nominal = rate
		res.trials = append(res.trials, r)
		return r, s.passes(r)
	}
	// A rate fails after two failed trials; a trial that failed while the
	// hypervisor stole more than stealQuiet of the VM is repeated instead
	// of counted (at most four trials per rate).
	try := func(rate float64) (trialResult, bool) {
		var r trialResult
		counted := 0
		for n := 0; n < 4 && counted < 2 && len(res.trials) < s.maxTrials; n++ {
			var ok bool
			if r, ok = once(rate); ok {
				return r, true
			}
			if r.steal <= stealQuiet {
				counted++
			}
		}
		return r, false
	}
	var best trialResult
	pass, fail := 0.0, 0.0
	for rate := s.start; len(res.trials) < s.maxTrials; rate = math.Min(rate*s.step, s.ceiling) {
		r, ok := try(rate)
		if !ok {
			fail = rate
			break
		}
		pass, best = rate, r
		if rate >= s.ceiling {
			break
		}
	}
	if pass == 0 {
		pass = s.start / (s.step * s.step) // the start failed: search below it
	}
	for len(res.trials) < s.maxTrials {
		if fail > 0 && fail/pass > s.precision {
			mid := math.Sqrt(pass * fail)
			if r, ok := try(mid); ok {
				pass, best = mid, r
			} else {
				fail = mid
			}
			continue
		}
		r, ok := once(pass)
		if ok {
			best, res.confirmed = r, true
			break
		}
		fail, pass = pass, pass/s.step
	}
	if best.sent > 0 {
		res.maxRate, res.nominal = best.offered, best.nominal
	}
	return res
}
