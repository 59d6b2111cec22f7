package main

import (
	"syscall"
	"time"
)

// monoStart anchors mono: every timestamp the benchmark takes is
// nanoseconds on the monotonic clock since process start.
var monoStart = time.Now()

func mono() int64 { return int64(time.Since(monoStart)) }

// pacer schedules an open loop at a fixed rate: unit i is due at
// start + i·interval whether or not earlier units have completed. The
// generator busy-polls the clock instead of sleeping: on small VMs a timer
// sleep of tens of microseconds wakes up to a millisecond late, which would
// swamp the latencies being measured. Lateness (send time − due time) is
// recorded per unit so every run reports how late the generator ran.
type pacer struct {
	start    int64
	interval float64
	n        int   // units in the phase
	next     int   // next unit to send
	last     int64 // when the latest unit was taken
	late     *samples
	// minGap, when set, is the least time between two takes once the
	// generator is behind: after a stall it catches up at a bounded rate
	// instead of in one burst. Units keep their due times, so the catch-up
	// still counts as lateness and latency.
	minGap int64
}

func newPacer(rate float64, d time.Duration, late *samples) *pacer {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	return &pacer{start: mono() + int64(50*time.Microsecond), interval: 1e9 / rate, n: n, late: late}
}

func (p *pacer) due(i int) int64 { return p.start + int64(float64(i)*p.interval) }

func (p *pacer) done() bool { return p.next >= p.n }

// take returns how many units (at most max) are due at now, starting at
// p.next, records their lateness, and advances past them.
func (p *pacer) take(now int64, max int) int {
	if p.minGap > 0 && p.next > 0 {
		max = min(max, int((now-p.last)/p.minGap))
	}
	k := 0
	for p.next < p.n && k < max {
		d := p.due(p.next)
		if d > now {
			break
		}
		p.late.add(now - d)
		p.next++
		k++
	}
	if k > 0 {
		p.last = now
	}
	return k
}

// nextSend is when the next unit may be taken: its due time, or later
// while a bounded catch-up spaces the takes.
func (p *pacer) nextSend() int64 {
	if p.minGap > 0 && p.next > 0 {
		return max(p.due(p.next), p.last+p.minGap)
	}
	return p.due(p.next)
}

// offered is the measured offered rate: the units after the first ÷ the
// time from the first due time to the last send.
func (p *pacer) offered() float64 {
	span := float64(p.last - p.start)
	if span <= 0 || p.next < 2 {
		return 0
	}
	return float64(p.next-1) / span * 1e9
}

// Waiting strategy: far from the due time the generator thread sleeps with
// nanosleep (timer slack cut to 1ns so the kernel does not defer the wake
// by its default 50µs); close to it, it polls the clock. Yielding instead of
// polling was tried and let the generator fall milliseconds behind.
const sleepMargin = 30 * time.Microsecond

// waitUntil returns the first mono() reading at or after due.
func waitUntil(due int64) int64 {
	for {
		now := mono()
		if now >= due {
			return now
		}
		if left := due - now; left > int64(sleepMargin) {
			ts := syscall.NsecToTimespec(left - int64(sleepMargin))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
		}
	}
}

// setTimerSlack sets the calling thread's timer slack to 1ns; the caller
// must hold its OS thread (runtime.LockOSThread).
func setTimerSlack() {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}
