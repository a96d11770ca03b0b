package repro

// End-to-end regression tests for the paper's qualitative claims, run at
// reduced scale on the cheapest machine so `go test` guards the
// reproduction itself, not just the components. The full-scale numbers live
// in EXPERIMENTS.md and regenerate via cmd/experiments.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/memctrl"
	"repro/internal/mmq"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// claimsTune keeps the suite fast; patterns are scale-invariant.
var claimsTune = workload.Tuning{RefScale: 0.1}

// TestClaimContentionGrowsWithCores: the paper's core observation (Table
// II, Fig. 3): for a large problem size, total cycles grow substantially
// with active cores, while work cycles and misses stay ~constant.
func TestClaimContentionGrowsWithCores(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	r := experiments.NewRunner(claimsTune)
	spec := machine.IntelUMA8()
	d, err := r.Fig3(context.Background(), spec, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if omega := d.Total[2]/d.Total[0] - 1; omega < 0.5 {
		t.Errorf("CG.C omega(8) = %.2f, want substantial growth", omega)
	}
	if workGrowth := d.Work[2] / d.Work[0]; workGrowth > 1.05 || workGrowth < 0.95 {
		t.Errorf("work cycles grew by %.2fx, want ~constant", workGrowth)
	}
	if missGrowth := d.Misses[2] / d.Misses[0]; missGrowth > 1.25 || missGrowth < 0.8 {
		t.Errorf("LLC misses grew by %.2fx, want ~constant", missGrowth)
	}
	// Growth is in the stalls: stall share must increase with cores.
	if d.Stall[2]/d.Total[2] <= d.Stall[0]/d.Total[0] {
		t.Error("stall share did not grow with cores")
	}
}

// TestClaimContentionSmoke is the -short variant of the claim above: one
// tiny end-to-end sweep (CG.C at 1 and 8 cores, RefScale 0.05) so even the
// short suite exercises the full stack — trace generation, caches,
// interconnect, memory controllers, event queue — with loose thresholds
// that only catch gross breakage.
func TestClaimContentionSmoke(t *testing.T) {
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	d, err := r.Fig3(context.Background(), machine.IntelUMA8(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if omega := d.Total[1]/d.Total[0] - 1; omega < 0.2 {
		t.Errorf("CG.C omega(8) = %.2f, want visible contention even at smoke scale", omega)
	}
	if workGrowth := d.Work[1] / d.Work[0]; workGrowth > 1.10 || workGrowth < 0.90 {
		t.Errorf("work cycles grew by %.2fx, want ~constant", workGrowth)
	}
}

// TestClaimSizeControlsContention: W sizes contend far less than C sizes
// for the memory-bound dwarfs (Table II's small-vs-large contrast).
func TestClaimSizeControlsContention(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	r := experiments.NewRunner(claimsTune)
	spec := machine.IntelUMA8()
	omega := func(program string, class workload.Class) float64 {
		base, err := r.Run(context.Background(), spec, program, class, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.Run(context.Background(), spec, program, class, 8)
		if err != nil {
			t.Fatal(err)
		}
		return core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))
	}
	for _, prog := range []string{"CG", "SP"} {
		small, large := omega(prog, workload.W), omega(prog, workload.C)
		if large < small+0.3 {
			t.Errorf("%s: omega W=%.2f vs C=%.2f — large size should contend much more", prog, small, large)
		}
	}
}

// TestClaimContentionOrdering: SP tops the contention ranking and EP is
// near zero (Table II row structure).
func TestClaimContentionOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	r := experiments.NewRunner(claimsTune)
	spec := machine.IntelUMA8()
	omega := map[string]float64{}
	for _, prog := range []string{"EP", "CG", "SP"} {
		base, err := r.Run(context.Background(), spec, prog, workload.C, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.Run(context.Background(), spec, prog, workload.C, 8)
		if err != nil {
			t.Fatal(err)
		}
		omega[prog] = core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))
	}
	if !(omega["SP"] > omega["CG"]) {
		t.Errorf("SP (%.2f) should top CG (%.2f)", omega["SP"], omega["CG"])
	}
	if omega["EP"] > 0.2 {
		t.Errorf("EP omega = %.2f, want ~0", omega["EP"])
	}
}

// TestClaimBurstinessDependsOnSize: the paper's Fig. 4 observation — the
// small problem size is bursty, the large one is not.
func TestClaimBurstinessDependsOnSize(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	// Full iteration counts are needed for burst statistics; CG.S and CG.C
	// stay affordable on the UMA machine.
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.5})
	series, err := r.Fig4(context.Background(), machine.IntelUMA8())
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[workload.Class]experiments.Fig4Series{}
	for _, s := range series {
		if s.Program == "CG" {
			byClass[s.Class] = s
		}
	}
	if v := byClass[workload.S].Verdict; v != burst.Bursty {
		t.Errorf("CG.S verdict = %v (busy %.1f%%), want bursty",
			v, 100*byClass[workload.S].Analysis.NonEmptyFraction)
	}
	if v := byClass[workload.C].Verdict; v != burst.NonBursty {
		t.Errorf("CG.C verdict = %v (busy %.1f%%), want non-bursty",
			v, 100*byClass[workload.C].Analysis.NonEmptyFraction)
	}
	// Busy fraction must rise monotonically from S to C at the endpoints.
	if byClass[workload.S].Analysis.NonEmptyFraction >= byClass[workload.C].Analysis.NonEmptyFraction {
		t.Error("busy-window fraction should grow with problem size")
	}
}

// TestClaimMM1QueueOccupancy validates the paper's queueing-theoretic
// backbone (section IV) with the telemetry sampler as the measuring
// instrument: a memory controller driven by Poisson arrivals shows a mean
// number-in-system matching the M/M/1 prediction rho/(1-rho).
//
// The controller's service is deterministic per row outcome, so a pure
// arrival stream would be M/D/1 (about 25-35% below M/M/1 at these
// loads). Instead the addresses mix row hits (20 cycles) and misses (120
// cycles) at P(hit)=0.85, giving ES=35 and ES2=2500, i.e. squared
// coefficient of variation 1.04 — an M/G/1 within ~2% of M/M/1, close
// enough to verify the rho/(1-rho) shape at several loads.
func TestClaimMM1QueueOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	const (
		hitLat  = 20
		missLat = 120
		pHit    = 0.85
		rowSize = 1 << 20
		meanSvc = pHit*hitLat + (1-pHit)*missLat // 35 cycles
		horizon = 3_000_000
		sample  = 100
		warmup  = horizon / 10
	)
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		q := new(eventq.Queue)
		mc, err := memctrl.New(memctrl.Config{
			Name: "mm1", Channels: 1, Banks: 1,
			RowBytes: rowSize, LineBytes: 64,
			HitLatency: hitLat, MissLatency: missLat,
			Discipline: memctrl.FCFS,
		}, q)
		if err != nil {
			t.Fatal(err)
		}

		// Open-loop Poisson arrivals at lambda = rho/ES. With one channel,
		// one bank and FCFS, service order equals arrival order, so the
		// generated hit/miss sequence is served exactly as drawn.
		rng := rand.New(rand.NewSource(7))
		lambda := rho / meanSvc
		row := uint64(0)
		done := func() {}
		var arrive func()
		arrive = func() {
			if q.Now() >= horizon {
				return
			}
			if rng.Float64() >= pHit {
				row++ // row-buffer miss: move to a fresh DRAM row
			}
			mc.Submit(row*rowSize, done)
			gap := uint64(rng.ExpFloat64()/lambda) + 1
			q.After(gap, arrive)
		}
		q.After(1, arrive)

		// The sampler: the same instantaneous-occupancy probe the
		// in-simulator telemetry records, on the same time-series type.
		occ := telemetry.NewTimeSeries("occupancy", "requests", horizon/sample)
		var probe func()
		probe = func() {
			if q.Now() >= horizon {
				return
			}
			if q.Now() > warmup {
				occ.Append(q.Now(), float64(mc.Occupancy()))
			}
			q.After(sample, probe)
		}
		q.After(sample, probe)
		q.Run()

		// Predict from the measured utilization, so arrival-rate rounding
		// cannot bias the comparison.
		rhoMeasured := mc.Stats().Utilization(horizon, 1)
		model := mmq.MM1{Lambda: rhoMeasured, Mu: 1}
		w, err := model.ResponseTime()
		if err != nil {
			t.Fatal(err)
		}
		want := model.Lambda * w // Little's law: L = lambda * W
		got := occ.Mean()
		if relErr := math.Abs(got-want) / want; relErr > 0.20 {
			t.Errorf("rho=%.1f (measured %.3f): sampled occupancy %.3f vs M/M/1 %.3f (%.0f%% off, want within 20%%)",
				rho, rhoMeasured, got, want, 100*relErr)
		}
	}
}

// TestClaimModelAccuracy: the analytical model fitted from the paper's
// input plan tracks the measured contention within the paper's error band
// (5-14%, allowing some slack at reduced scale).
func TestClaimModelAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite skipped in -short mode")
	}
	r := experiments.NewRunner(claimsTune)
	spec := machine.IntelUMA8()
	fig, err := r.Fig5(context.Background(), spec, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Validation.MeanRelErr > 0.20 {
		t.Errorf("model MRE = %.1f%%, want within ~the paper's band",
			100*fig.Validation.MeanRelErr)
	}
}

// TestClaimLinearityForContendedPrograms: Table IV — 1/C(n) is nearly
// linear for the high-contention program, less so for EP.
func TestClaimLinearityForContendedPrograms(t *testing.T) {
	r := experiments.NewRunner(claimsTune)
	spec := machine.IntelUMA8()
	r2 := func(program string) float64 {
		meas, err := r.Sweep(context.Background(), spec, program, workload.C, []int{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.LinearityR2(meas)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if sp := r2("SP"); sp < 0.9 {
		t.Errorf("SP.C linearity R2 = %.2f, want >= 0.9", sp)
	}
}

// TestClaimMoreControllersReduceContention: the paper's conclusion that
// added memory controllers relieve contention: interleaving CG.C across
// both UMA-socket buses... the cleanest check is the custom-machine one:
// doubling MC channels lowers omega.
func TestClaimMoreBandwidthReducesContention(t *testing.T) {
	r := experiments.NewRunner(claimsTune)
	narrow := machine.IntelUMA8()
	wide := machine.IntelUMA8()
	wide.Name = "IntelUMA8wide"
	wide.MC.Channels = 4
	omega := func(spec machine.Spec) float64 {
		base, err := r.Run(context.Background(), spec, "SP", workload.C, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.Run(context.Background(), spec, "SP", workload.C, 8)
		if err != nil {
			t.Fatal(err)
		}
		return core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))
	}
	if on, ow := omega(narrow), omega(wide); ow >= on {
		t.Errorf("wide machine omega %.2f should be below narrow %.2f", ow, on)
	}
}
