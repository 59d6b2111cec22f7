package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	return quantile(cp, 0.5)
}

// samples collects exact nanosecond observations; percentiles are read
// from the raw values, never from histogram buckets.
type samples struct {
	ns []float64
}

func newSamples(capacity int) *samples { return &samples{ns: make([]float64, 0, capacity)} }

func (s *samples) add(ns int64) { s.ns = append(s.ns, float64(ns)) }

func (s *samples) n() int { return len(s.ns) }

// pct returns the q-quantile in microseconds.
func (s *samples) pct(q float64) float64 { return quantile(s.ns, q) / 1e3 }
