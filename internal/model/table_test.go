package model

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// syntheticAnchors returns anchor measurements for spec's paper plan
// without simulating. Single-socket anchors follow a slightly non-linear
// 1/C(n), so the fit is good but not exact. With collapse set, the
// anchors past the first socket measure 1% of the first socket's cycles,
// which drives ΔC (UMA) or ρ (NUMA) negative and makes C(n) non-positive
// for larger n: the saturated half of the table.
func syntheticAnchors(spec machine.Spec, collapse bool) ([]int, []core.Measurement) {
	plan := core.PaperInputs(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
	meas := make([]core.Measurement, len(plan))
	for i, n := range plan {
		cycles := 1e6 * (1 + 0.05*float64(n) + 0.002*float64(n*n))
		if collapse && n > spec.CoresPerSocket {
			cycles = 1e4
		}
		meas[i] = core.Measurement{Cores: n, Cycles: cycles, LLCMisses: 1e4 * float64(n)}
	}
	return plan, meas
}

// TestAnswerTable checks the per-fit answer table against the closed form
// evaluated point by point, for fits on all three presets built from
// synthetic anchors: every value bit for bit, the config hash, saturated
// declines, gates read per call, and no allocation on the answered path.
func TestAnswerTable(t *testing.T) {
	const program, class = "CG", workload.W
	answered, saturated := 0, 0
	for _, name := range []string{"IntelUMA8", "IntelNUMA24", "AMDNUMA48"} {
		for _, collapse := range []bool{false, true} {
			spec, err := machine.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := New(experiments.NewRunner(workload.Tuning{RefScale: 0.05}))
			p.MinR2, p.MaxResidual = -1, 1e9
			plan, meas := syntheticAnchors(spec, collapse)
			if _, err := p.fit(spec, program, class, plan, meas); err != nil {
				t.Fatalf("%s collapse=%v: fit: %v", name, collapse, err)
			}
			entry := p.fits[fitKey{spec.Name, program, class, p.Scale()}]
			m := entry.model

			curve := make([]int, spec.TotalCores())
			for i := range curve {
				curve[i] = i + 1
			}
			preds, reasons := p.AnalyticalCurve(spec, program, class, curve)
			for n := 1; n <= spec.TotalCores(); n++ {
				pred, reason := p.Analytical(spec, program, class, n)
				if preds[n-1].ConfigHash != pred.ConfigHash || reasons[n-1] != reason {
					t.Errorf("%s n=%d: curve point (%q, %q) differs from Analytical (%q, %q)",
						name, n, preds[n-1].ConfigHash, reasons[n-1], pred.ConfigHash, reason)
				}
				cn := m.C(n)
				if math.IsInf(cn, 0) || cn <= 0 {
					saturated++
					if reason != DeclineSaturated {
						t.Errorf("%s n=%d: C(n)=%g answered with reason %q, want %q", name, n, cn, reason, DeclineSaturated)
					}
					continue
				}
				answered++
				if reason != "" {
					t.Fatalf("%s n=%d: declined %q", name, n, reason)
				}
				bits := func(what string, got, want float64) {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s n=%d: %s = %v, want %v", name, n, what, got, want)
					}
				}
				bits("omega", pred.Omega, m.Omega(n))
				bits("C(n)", pred.Cycles, cn)
				bits("C(1)", pred.BaselineCycles, m.C1)
				bits("makespan", pred.MakespanCycles, cn/float64(n))
				wantUtil := analyticalMCUtil(spec, m.Single, n)
				if len(pred.MCUtilization) != len(wantUtil) {
					t.Fatalf("%s n=%d: %d MC utilizations, want %d", name, n, len(pred.MCUtilization), len(wantUtil))
				}
				for i := range wantUtil {
					bits("MC utilization", pred.MCUtilization[i], wantUtil[i])
				}
				if want := p.key(spec, program, class, n).Hash(); pred.ConfigHash != want {
					t.Errorf("%s n=%d: ConfigHash %s, want %s", name, n, pred.ConfigHash, want)
				}
				if pred.Fit != entry.info || pred.Tier != TierAnalytical || pred.Cores != n || pred.Machine != spec.Name {
					t.Errorf("%s n=%d: fit %p (want the shared %p), tier %q, cores %d, machine %q",
						name, n, pred.Fit, entry.info, pred.Tier, pred.Cores, pred.Machine)
				}
				if allocs := testing.AllocsPerRun(20, func() { p.Analytical(spec, program, class, n) }); allocs != 0 {
					t.Errorf("%s n=%d: Analytical allocates %v times", name, n, allocs)
				}
			}

			// The gates read MinR2 and MaxResidual on every call.
			p.MinR2 = 2
			if _, reason := p.Analytical(spec, program, class, 1); reason != DeclineLowR2 {
				t.Errorf("%s: MinR2 raised after the fit: reason %q, want %q", name, reason, DeclineLowR2)
			}
			p.MinR2 = -1
			p.MaxResidual = -1
			if _, reason := p.Analytical(spec, program, class, 1); reason != DeclineResidual {
				t.Errorf("%s: MaxResidual lowered after the fit: reason %q, want %q", name, reason, DeclineResidual)
			}
			p.MaxResidual = 1e9
			if _, reason := p.Analytical(spec, program, class, 1); reason != "" {
				t.Errorf("%s: gates relaxed again: declined %q", name, reason)
			}

			// A mutated spec under the preset's name gets the closed form
			// on its own spec, not the preset's table row.
			mutated := spec
			mutated.MSHRs++
			pred, reason := p.Analytical(mutated, program, class, 1)
			want := p.analyticalAt(m, entry.info, mutated, program, class, 1)
			if reason != "" || pred.ConfigHash != want.ConfigHash || pred.ConfigHash == entry.answers[0].ConfigHash {
				t.Errorf("%s: mutated spec answered (%q, %q), want hash %q apart from the table's %q",
					name, pred.ConfigHash, reason, want.ConfigHash, entry.answers[0].ConfigHash)
			}
		}
	}
	if answered == 0 || saturated == 0 {
		t.Fatalf("synthetic fits answered %d and saturated %d points; the test needs both", answered, saturated)
	}
}
