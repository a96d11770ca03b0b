package sim

import (
	"strconv"

	"repro/internal/telemetry"
)

// ObserveConfig enables in-run telemetry: a simulated-time sampler driven
// by the engine at a fixed interval, plus optional structured tracing and
// a live metrics registry. A nil *ObserveConfig (the default) keeps the
// zero-alloc hot path byte-for-byte identical to a build without
// telemetry — the engine's only concession is one nil check at start-up.
type ObserveConfig struct {
	// Interval is the sampling period in simulated cycles; 0 defaults to
	// the paper's 5 µs at the machine's clock (or 10000 cycles when the
	// spec has no clock).
	Interval uint64
	// Tracer, when non-nil, receives structured run events: run lifecycle
	// and sampler summary.
	Tracer *telemetry.Tracer
	// Registry, when non-nil, is updated live at every sample (gauges for
	// in-flight requests and per-controller utilization, a counter of
	// samples taken), so a debug HTTP endpoint can watch a long run.
	Registry *telemetry.Registry
}

// intervalFor resolves the sampling period against a machine clock.
func (o *ObserveConfig) intervalFor(clockGHz float64) uint64 {
	if o.Interval > 0 {
		return o.Interval
	}
	if cyclesPerMicro := uint64(clockGHz * 1000); cyclesPerMicro > 0 {
		return 5 * cyclesPerMicro
	}
	return 10000
}

// RunTelemetry is the sampled time-series output of one observed run,
// attached to Result.Telemetry. Every series shares the same sample
// clock (one sample per interval), so they can be written as one
// timeline table with telemetry.WriteTimelineDat.
type RunTelemetry struct {
	// Interval is the sampling period in cycles.
	Interval uint64
	// InFlight is the total number of off-chip requests in flight.
	InFlight *telemetry.TimeSeries
	// MCOccupancy has, per memory controller, the instantaneous number of
	// requests in the system (queued + in service) — the quantity the
	// M/M/1 model predicts as rho/(1-rho).
	MCOccupancy []*telemetry.TimeSeries
	// MCUtil has, per memory controller, the channel utilization over the
	// last window (busy cycles / (interval * channels)). The controller
	// books a request's busy time when service starts, so a saturated
	// window can read slightly above 1 (by at most service/interval); the
	// long-run mean converges to true utilization.
	MCUtil []*telemetry.TimeSeries
	// BusUtil has, per UMA front-side bus, the window utilization.
	BusUtil []*telemetry.TimeSeries
	// LinkUtil has, per NUMA interconnect link server, the window
	// utilization.
	LinkUtil []*telemetry.TimeSeries
	// CoreStallFrac has, per core, the stall cycles charged in the window
	// divided by the window length. It can exceed 1 when a core
	// multiplexes several simultaneously blocked threads.
	CoreStallFrac []*telemetry.TimeSeries
}

// Series returns every sampled series in a fixed, documented order:
// in-flight, per-MC occupancy, per-MC utilization, per-bus utilization,
// per-link utilization, per-core stall fraction. This is the column
// order of the exported .dat timeline.
func (rt *RunTelemetry) Series() []*telemetry.TimeSeries {
	out := make([]*telemetry.TimeSeries, 0,
		1+len(rt.MCOccupancy)+len(rt.MCUtil)+len(rt.BusUtil)+len(rt.LinkUtil)+len(rt.CoreStallFrac))
	out = append(out, rt.InFlight)
	out = append(out, rt.MCOccupancy...)
	out = append(out, rt.MCUtil...)
	out = append(out, rt.BusUtil...)
	out = append(out, rt.LinkUtil...)
	out = append(out, rt.CoreStallFrac...)
	return out
}

// observer drives the sampler from the simulation's own event loop. Its
// sampling callback is prebuilt once, reads engine state, appends one
// point per series and re-arms itself while the run still has pending
// events — so a finished simulation is never kept alive by its sampler.
type observer struct {
	e        *engine
	interval uint64
	rt       *RunTelemetry
	tracer   *telemetry.Tracer
	sampleFn func()

	// terminal is set by the tick that fires after the run's last real
	// event (the queue is empty when it runs); realEnd is the clock value
	// just before that tick, captured by drive, which Run restores as the
	// Makespan so observation never changes it.
	terminal bool
	realEnd  uint64
	endSet   bool

	// Previous busy-cycle totals, for windowed utilization deltas.
	prevMCBusy   []uint64
	prevBusBusy  []uint64
	prevLinkBusy []uint64
	// Previous per-core stall totals (including the in-progress portion of
	// currently blocked intervals, so window charges stay smooth even
	// though the engine books a blocked interval only when it ends).
	prevStall []uint64

	// Live registry handles, resolved once so sampling never hashes names.
	samples   *telemetry.Counter
	inflightG *telemetry.Gauge
	mcUtilG   []*telemetry.Gauge
}

// seriesHint pre-sizes series storage; runs longer than hint*interval
// grow by amortized doubling, which the alloc-bound test still covers.
const seriesHint = 256

func newObserver(e *engine, cfg *ObserveConfig) *observer {
	o := &observer{
		e:        e,
		interval: cfg.intervalFor(e.cfg.Spec.ClockGHz),
		tracer:   cfg.Tracer,
	}
	nMC, nBus, nLink, nCore := len(e.m.MCs), len(e.m.Buses), len(e.m.LinkServers), len(e.cores)
	rt := &RunTelemetry{
		Interval: o.interval,
		InFlight: telemetry.NewTimeSeries("inflight", "requests", seriesHint),
	}
	for i := 0; i < nMC; i++ {
		rt.MCOccupancy = append(rt.MCOccupancy,
			telemetry.NewTimeSeries(seriesName("mc", i, ".occupancy"), "requests", seriesHint))
		rt.MCUtil = append(rt.MCUtil,
			telemetry.NewTimeSeries(seriesName("mc", i, ".util"), "fraction", seriesHint))
	}
	for i := 0; i < nBus; i++ {
		rt.BusUtil = append(rt.BusUtil,
			telemetry.NewTimeSeries(seriesName("bus", i, ".util"), "fraction", seriesHint))
	}
	for i := 0; i < nLink; i++ {
		rt.LinkUtil = append(rt.LinkUtil,
			telemetry.NewTimeSeries(seriesName("link", i, ".util"), "fraction", seriesHint))
	}
	for i := 0; i < nCore; i++ {
		rt.CoreStallFrac = append(rt.CoreStallFrac,
			telemetry.NewTimeSeries(seriesName("core", i, ".stall_frac"), "fraction", seriesHint))
	}
	o.rt = rt
	o.prevMCBusy = make([]uint64, nMC)
	o.prevBusBusy = make([]uint64, nBus)
	o.prevLinkBusy = make([]uint64, nLink)
	o.prevStall = make([]uint64, nCore)

	if reg := cfg.Registry; reg != nil {
		o.samples = reg.Counter("sim_samples_total")
		o.inflightG = reg.Gauge("sim_inflight_requests")
		for i := 0; i < nMC; i++ {
			//simcheck:allow(tracelint) per-MC gauge family is indexed by controller id; prefix and suffix stay literal inside seriesName
			o.mcUtilG = append(o.mcUtilG, reg.Gauge(seriesName("sim_mc", i, "_util")))
		}
	}
	o.sampleFn = o.sample
	return o
}

// seriesName builds "prefix<i>suffix" (run-setup only, never sampled).
func seriesName(prefix string, i int, suffix string) string {
	return prefix + strconv.Itoa(i) + suffix
}

// start arms the first sample one interval into the run.
func (o *observer) start() {
	o.e.q.After(o.interval, o.sampleFn)
}

// drive is the observed run's event loop. It mirrors q.Run / q.RunWhile
// (maxCycles 0 means unbounded) but remembers the clock value from just
// before the terminal sampler tick: that tick fires after the last real
// event and would otherwise round the makespan up to the next sampling
// boundary. When done is non-nil, cont is consulted every `every`
// dispatched events — the same bounded-latency cancellation contract as
// eventq.Queue.RunChecked — and drive reports false if it stopped because cont
// did.
func (o *observer) drive(maxCycles, every uint64, done <-chan struct{}, cont func() bool) bool {
	q := o.e.q
	var n uint64
	for maxCycles == 0 || q.Now() < maxCycles {
		before := q.Now()
		if !q.Step() {
			return true
		}
		if o.terminal && !o.endSet {
			o.realEnd, o.endSet = before, true
		}
		if done != nil {
			if n++; n >= every {
				n = 0
				if !cont() {
					return false
				}
			}
		}
	}
	return true
}

// sample records one point on every series and re-arms the sampler while
// the run is still live.
func (o *observer) sample() {
	e := o.e
	if e.q.Len() == 0 {
		// Terminal tick: every real event completed before this sample
		// fired, so there is nothing live to record and no re-arm. The
		// clock advance that delivered this event is undone by Run via
		// drive's realEnd capture.
		o.terminal = true
		return
	}
	now := e.q.Now()

	inflight := 0
	for _, th := range e.threads {
		inflight += th.outstanding
	}
	o.rt.InFlight.Append(now, float64(inflight))

	window := float64(o.interval)
	for i, mc := range e.m.MCs {
		o.rt.MCOccupancy[i].Append(now, float64(mc.Occupancy()))
		busy := mc.Stats().BusyCycles
		util := float64(busy-o.prevMCBusy[i]) / (window * float64(mc.Config().Channels))
		o.rt.MCUtil[i].Append(now, util)
		o.prevMCBusy[i] = busy
		if o.mcUtilG != nil {
			o.mcUtilG[i].Set(util)
		}
	}
	for i, b := range e.m.Buses {
		busy := b.Stats().BusyCycles
		o.rt.BusUtil[i].Append(now, float64(busy-o.prevBusBusy[i])/window)
		o.prevBusBusy[i] = busy
	}
	for i, l := range e.m.LinkServers {
		busy := l.Stats().BusyCycles
		o.rt.LinkUtil[i].Append(now, float64(busy-o.prevLinkBusy[i])/(window*2))
		o.prevLinkBusy[i] = busy
	}
	for ci, c := range e.cores {
		stall := uint64(0)
		for _, th := range c.threads {
			stall += th.st.Stall
			if th.blocked && !th.atBarrier {
				// Count the in-progress portion of an open blocked interval;
				// the engine will book it only at unblock time.
				stall += now - th.blockStart
			}
		}
		o.rt.CoreStallFrac[ci].Append(now, float64(stall-o.prevStall[ci])/window)
		o.prevStall[ci] = stall
	}

	if o.samples != nil {
		o.samples.Inc()
		o.inflightG.Set(float64(inflight))
	}

	e.q.After(o.interval, o.sampleFn)
}
