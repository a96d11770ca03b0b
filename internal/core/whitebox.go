package core

import (
	"errors"
	"math"

	"repro/internal/machine"
)

// The white-box model is the extension the paper sketches in its
// conclusions: "the model can be extended, at the expense of higher
// modeling cost, to factor in bus speed and bandwidth, memory size and
// bandwidth, number of memory channels, service-discipline of memory
// controllers, among others." Instead of fitting μ and L by regression from
// measurement runs, it derives them from the machine description
// (internal/machine) and a compact workload profile, so it can predict
// contention for configurations that have never been measured (e.g. the
// capacity-planning and custom-machine examples).
//
// The derivation treats each active memory controller as a multi-channel
// queue fed by the active cores of its socket. A core sustains up to
// Profile.MLP outstanding misses, so the system is a closed queueing
// network; the model solves the per-socket fixed point
//
//	λ = min(demand, capacity), R = service·(1 + q(λ))
//
// with q the M/M/c queue length at the observed utilization, and converts
// the per-miss response time into cycles: C(n) = W + r·R(n)/MLP_eff.

// Profile characterizes a workload for the white-box model.
type Profile struct {
	// WorkCycles is W: total computation cycles, independent of n.
	WorkCycles float64
	// Misses is r(n): total off-chip requests, treated as constant.
	Misses float64
	// DepFraction is the fraction of misses that are dependent loads
	// (pointer-chasing gathers); they cap the effective memory-level
	// parallelism.
	DepFraction float64
	// RowHitRatio estimates the DRAM row-buffer hit ratio (0 defaults to
	// 0.3, a typical value for mixed streams).
	RowHitRatio float64
}

// ProfileFromCounters builds a Profile from a 1-core measurement plus the
// workload's dependent fraction (known from its construction or measured
// with a profiler).
func ProfileFromCounters(workCycles, misses uint64, depFraction float64) Profile {
	return Profile{
		WorkCycles:  float64(workCycles),
		Misses:      float64(misses),
		DepFraction: depFraction,
	}
}

// WhiteBox predicts contention from machine parameters and a workload
// profile, with no regression fitting.
type WhiteBox struct {
	Spec    machine.Spec
	Profile Profile
}

// ErrBadProfile is returned for non-positive profile quantities.
var ErrBadProfile = errors.New("core: invalid white-box profile")

// NewWhiteBox validates the inputs.
func NewWhiteBox(spec machine.Spec, p Profile) (*WhiteBox, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.WorkCycles < 0 || p.Misses <= 0 || p.DepFraction < 0 || p.DepFraction > 1 {
		return nil, ErrBadProfile
	}
	return &WhiteBox{Spec: spec, Profile: p}, nil
}

// serviceCycles returns the mean DRAM service time per request from the
// controller configuration and the profile's row-hit ratio.
func (w *WhiteBox) serviceCycles() float64 {
	rh := w.Profile.RowHitRatio
	if rh == 0 {
		rh = 0.3
	}
	return rh*float64(w.Spec.MC.HitLatency) + (1-rh)*float64(w.Spec.MC.MissLatency)
}

// mlpEff returns the effective memory-level parallelism per core: dependent
// misses serialize (MLP 1), independent ones overlap up to the MSHR count.
func (w *WhiteBox) mlpEff() float64 {
	d := w.Profile.DepFraction
	m := float64(w.Spec.MSHRs)
	// Harmonic blend: a stream alternating dependent and independent misses
	// has throughput limited by the dependent fraction.
	return 1 / (d/1 + (1-d)/m)
}

// baseLatency is the no-contention round trip of one miss: cache traversal
// plus DRAM service (local access).
func (w *WhiteBox) baseLatency() float64 {
	var traversal float64
	for _, lvl := range w.Spec.Levels {
		traversal += float64(lvl.Latency)
	}
	var bus float64
	if w.Spec.Bus != nil {
		bus = float64(w.Spec.Bus.Occupancy)
	}
	return traversal + bus + w.serviceCycles()
}

// mmcResponse returns the open M/M/c response time of an s-cycle service,
// c-channel station at arrival rate lambda (requests/cycle), or +Inf at or
// beyond capacity.
func mmcResponse(lambda, s float64, channels int) float64 {
	capacity := float64(channels) / s
	if lambda >= capacity {
		return math.Inf(1)
	}
	rho := lambda * s / float64(channels)
	// Erlang-C via the Erlang-B recurrence (cheap for small channel counts).
	a := lambda * s
	b := 1.0
	for k := 1; k <= channels; k++ {
		b = a * b / (float64(k) + a*b)
	}
	pWait := b / (1 - rho*(1-b))
	return s + pWait/(capacity-lambda)
}

// activeStations returns the number of active controllers and sockets for
// fill-first activation of n cores.
func (w *WhiteBox) activeStations(n int) (mcs, sockets int) {
	for s := 0; s < w.Spec.Sockets; s++ {
		if CoresOnSocket(n, w.Spec.CoresPerSocket, s) > 0 {
			sockets++
		}
	}
	if w.Spec.UMA() {
		return 1, sockets
	}
	return sockets * w.Spec.MCsPerSocket, sockets
}

// rhs evaluates the response-time equation's right-hand side at candidate
// per-miss response time r: the no-queue path latency plus the queueing at
// the active stations under the issue rate n·mlp/r. It is decreasing in r.
func (w *WhiteBox) rhs(n int, r float64) float64 {
	spec := w.Spec
	mlp := w.mlpEff()
	svc := w.serviceCycles()
	activeMCs, activeSockets := w.activeStations(n)

	lambdaTotal := float64(n) * mlp / r
	respMC := mmcResponse(lambdaTotal/float64(activeMCs), svc, spec.MC.Channels)

	var respBus float64
	if spec.Bus != nil {
		respBus = mmcResponse(lambdaTotal/float64(activeSockets), float64(spec.Bus.Occupancy), 1)
	}

	var traversal float64
	for _, lvl := range spec.Levels {
		traversal += float64(lvl.Latency)
	}

	// Remote surcharge: with pages spread over active sockets, a fraction
	// (activeSockets-1)/activeSockets of accesses cross the interconnect
	// (NUMA only), out and back.
	remote := 0.0
	if !spec.UMA() && activeSockets > 1 {
		frac := float64(activeSockets-1) / float64(activeSockets)
		remote = frac * 2 * float64(spec.HopLatency) * w.avgHops()
	}
	return traversal + respBus + respMC + remote
}

// C predicts the total cycles at n active cores (fill-processor-first).
//
// Each core keeps mlp requests in flight, so the aggregate issue rate is
// λ = n·mlp/R — the closed-network feedback. The equilibrium response time
// solves R = rhs(R); since rhs is strictly decreasing in R, the root is
// unique and found by bracketed bisection. In the saturated regime this
// converges to R ≈ n·mlp/capacity, the linear-in-n growth the simulator
// measures, instead of diverging like the open-queue formula.
func (w *WhiteBox) C(n int) float64 {
	mlp := w.mlpEff()
	lo := w.baseLatency()
	hi := lo * 2
	for w.rhs(n, hi) > hi {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if w.rhs(n, mid) > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := (lo + hi) / 2
	// Each miss occupies the thread for R/mlp effective cycles.
	return w.Profile.WorkCycles + w.Profile.Misses*r/mlp
}

// avgHops returns the mean hop count between distinct sockets' controllers
// under a uniform traffic mix, from the machine's interconnect links (1 for
// a direct link, up to 2 on the AMD partial mesh).
func (w *WhiteBox) avgHops() float64 {
	// The hop structure is part of machine.Spec only through Links; rebuild
	// the class counts cheaply: one hop for adjacent controllers, two
	// otherwise. A precise average needs the topology, so approximate with
	// 1.0 for two-socket machines and 1.33 for larger ones (the C8(1,2)
	// mean remote distance).
	if w.Spec.Sockets <= 2 {
		return 1.0
	}
	return 4.0 / 3.0
}

// Omega predicts the degree of contention from the white-box C(n).
func (w *WhiteBox) Omega(n int) float64 {
	return Omega(w.C(n), w.C(1))
}

// Curve evaluates ω(n) for n = 1..maxCores.
func (w *WhiteBox) Curve(maxCores int) []float64 {
	out := make([]float64, maxCores)
	for n := 1; n <= maxCores; n++ {
		out[n-1] = w.Omega(n)
	}
	return out
}
