package main

import "time"

// On a shared host the CPU time of one fixed piece of work moves by a
// third and more from minute to minute, as other guests load the cores
// this one shares. A plain loop that depends on one chain of results does
// not follow it; a loop with several independent chains, which needs the
// core's full issue width as the simulator does, does. The benchmark runs
// such a loop in short slices between its ops and scales every CPU time
// it reports to a host on which one slice takes refSlice.
const (
	refSlice   = 5 * time.Millisecond
	sliceEvery = 50 * time.Millisecond // wall time between slices
	sliceIters = 2_000_000
)

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibSlice runs one slice of the calibration loop: four xorshift chains
// feeding a table that stays in the first-level cache, and one
// data-dependent branch.
func calibSlice() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var tab [512]uint64
	for i := 0; i < sliceIters; i++ {
		a ^= a << 13
		b ^= b >> 7
		c ^= c << 17
		d += a ^ b
		a ^= a >> 7
		b ^= b << 17
		c ^= c >> 9
		tab[(a^c)&511] += d
		if c&1 == 0 {
			d++
		}
	}
	calibSink += a + b + c + d + tab[3]
}

// hostSpeed samples the host's speed with calibration slices spread over
// one phase of a run.
type hostSpeed struct {
	last   time.Time
	cpu    time.Duration // CPU time of the slices run
	slices int
}

func newHostSpeed() *hostSpeed { return &hostSpeed{last: time.Now()} }

// sample runs one slice for each sliceEvery of wall time since the last
// call, and at least one, and returns the CPU time they took.
func (h *hostSpeed) sample() time.Duration {
	n := max(1, int(time.Since(h.last)/sliceEvery))
	start := cpuTime()
	for i := 0; i < n; i++ {
		calibSlice()
	}
	d := cpuTime() - start
	h.cpu += d
	h.slices += n
	h.last = time.Now()
	return d
}

// due reports whether a sample is due.
func (h *hostSpeed) due() bool { return time.Since(h.last) >= sliceEvery }

// scale converts a CPU time measured on this host during the phase into
// the time it would take on the reference host.
func (h *hostSpeed) scale(d time.Duration) time.Duration {
	if h.slices == 0 || h.cpu == 0 {
		return d
	}
	perSlice := float64(h.cpu) / float64(h.slices)
	return time.Duration(float64(d) * float64(refSlice) / perSlice)
}
