package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Hypervisor steal is the main source of run-to-run noise on a shared VM:
// while a vCPU is stolen, the generator, the router and the sink all stand
// still, and the stall lands in the latency and CPU figures of whatever
// window it hits. The reference phase is therefore cut into windows, each
// window's steal share is read from /proc/stat, and lat_p50_us and
// cpu_ns_per_pkt are taken over the quieter half of the windows (the first
// window, a warm-up, is skipped). On a quiet machine every window
// qualifies equally and the figures are plain whole-phase ones.

// refWindows is how many windows the reference phase is cut into.
const refWindows = 12

// stealQuiet is the steal share above which a failed rate-search trial is
// repeated instead of counted.
const stealQuiet = 0.05

// latWindows is how many equal slices of the reference phase (in arrival
// order) the printed lat_p99_us is the median over.
const latWindows = 16

// stealTicks reads the aggregate steal and total jiffies from /proc/stat.
func stealTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the steal share of an interval.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := stealTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := stealTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// window is one slice of the reference phase.
type window struct {
	from, to int64   // mono ns
	cpu      float64 // CPU ns of the system under test per unit offered
	steal    float64 // share of the VM's CPU time stolen
}

// sampleWindows reads the CPU counter and the steal share once per window
// while a phase runs; stop ends it and the windows arrive on the returned
// channel once the goroutine has exited.
func sampleWindows(read func() (int64, error), rate float64, width time.Duration, stop <-chan struct{}) <-chan []window {
	out := make(chan []window, 1)
	go func() {
		var ws []window
		t := time.NewTicker(width)
		defer t.Stop()
		c0, err0 := read()
		t0 := mono()
		st := startSteal()
		for {
			select {
			case <-stop:
				out <- ws
				return
			case <-t.C:
				c1, err1 := read()
				t1 := mono()
				if err0 == nil && err1 == nil {
					ws = append(ws, window{from: t0, to: t1,
						cpu: float64(c1-c0) / (rate * float64(t1-t0) / 1e9), steal: st.share()})
				}
				c0, err0, t0, st = c1, err1, t1, startSteal()
			}
		}
	}()
	return out
}

// quietWindows returns the quieter half of ws by steal share, skipping the
// first window.
func quietWindows(ws []window) []window {
	if len(ws) > 1 {
		ws = ws[1:]
	}
	q := append([]window(nil), ws...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].steal < q[j].steal })
	return q[:max((len(q)+1)/2, min(len(q), 1))]
}

// fillReference derives the reference-phase figures: lat_p50_us,
// cpu_ns_per_pkt and the generator's median lateness over the quiet
// windows, the whole-phase tail figures, loss, and the whole-phase
// lateness percentiles.
func fillReference(res *result, ref trialResult, lat, late *samples, ws []window) {
	res.latN = lat.n()
	res.p99 = windowedP99(lat.ns)
	res.p90 = quantile(append([]float64(nil), lat.ns...), 0.9) / 1e3
	res.p999 = quantile(append([]float64(nil), lat.ns...), 0.999) / 1e3
	res.loss = res.ref.lossRatio()
	lateByUnit := append([]float64(nil), late.ns...) // pct sorts late.ns
	res.genLateP50 = late.pct(0.5)
	res.genLateP90 = late.pct(0.9)
	res.genLateP99 = late.pct(0.99)
	res.p50 = lat.pct(0.5)
	res.genLateQuietP50 = res.genLateP50
	quiet := quietWindows(ws)
	if len(quiet) == 0 {
		return
	}
	var cpus, lats []float64
	for _, w := range quiet {
		cpus = append(cpus, w.cpu)
		res.steal = append(res.steal, w.steal)
	}
	for i := range ref.got {
		if ref.got[i] == 0 {
			continue
		}
		d := ref.pacer.due(i)
		for _, w := range quiet {
			if d >= w.from && d < w.to {
				lats = append(lats, float64(ref.latNs[i]))
				break
			}
		}
	}
	var lates []float64
	for i, l := range lateByUnit {
		d := ref.pacer.due(i)
		for _, w := range quiet {
			if d >= w.from && d < w.to {
				lates = append(lates, l)
				break
			}
		}
	}
	if len(lates) > 0 {
		res.genLateQuietP50 = quantile(lates, 0.5) / 1e3
	}
	res.cpuNs = median(cpus)
	if len(lats) > 0 {
		res.p50 = quantile(lats, 0.5) / 1e3
	}
	res.quietN = len(lats)
}

// windowedP99 is the median over latWindows equal slices of xs of each
// slice's p99, in µs. xs is left unsorted.
func windowedP99(xs []float64) float64 {
	if len(xs) < latWindows*100 {
		return quantile(append([]float64(nil), xs...), 0.99) / 1e3
	}
	per := make([]float64, 0, latWindows)
	w := len(xs) / latWindows
	for i := 0; i < latWindows; i++ {
		per = append(per, quantile(append([]float64(nil), xs[i*w:(i+1)*w]...), 0.99))
	}
	return median(per) / 1e3
}
