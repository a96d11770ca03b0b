package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// quickTune keeps test runs fast while preserving access patterns.
var quickTune = workload.Tuning{RefScale: 0.05}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(quickTune)
	spec := machine.IntelUMA8()
	res1, err := r.Run(context.Background(), spec, "CG", workload.W, 2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(context.Background(), spec, "CG", workload.W, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res1.TotalCycles != res2.TotalCycles {
		t.Error("cached run differs")
	}
	if len(r.cache) != 1 {
		t.Errorf("cache entries = %d", len(r.cache))
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := NewRunner(quickTune)
	if _, err := r.Run(context.Background(), machine.IntelUMA8(), "nope", workload.C, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSweepAndMeasure(t *testing.T) {
	r := NewRunner(quickTune)
	spec := machine.IntelUMA8()
	meas, err := r.Sweep(context.Background(), spec, "CG", workload.W, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 3 {
		t.Fatalf("measurements = %d", len(meas))
	}
	for i, m := range meas {
		if m.Cycles <= 0 || m.LLCMisses <= 0 {
			t.Errorf("measurement %d = %+v", i, m)
		}
	}
}

func TestSweepCounts(t *testing.T) {
	spec := machine.AMDNUMA48()
	full := FullSweepCounts(spec)
	if len(full) != 48 || full[0] != 1 || full[47] != 48 {
		t.Errorf("full sweep = %v", full)
	}
	coarse := CoarseSweepCounts(spec, 6)
	// Must contain the socket boundaries 12,13,24,25,36,37 and endpoints.
	want := map[int]bool{1: true, 12: true, 13: true, 24: true, 25: true, 36: true, 37: true, 48: true}
	have := map[int]bool{}
	for _, n := range coarse {
		have[n] = true
	}
	for n := range want {
		if !have[n] {
			t.Errorf("coarse sweep missing %d: %v", n, coarse)
		}
	}
	if len(coarse) >= len(full) {
		t.Error("coarse sweep not smaller than full")
	}
	if got := CoarseSweepCounts(spec, 0); len(got) != 48 {
		t.Errorf("step 0 should clamp to 1, got %d points", len(got))
	}
}

func TestModelKindFor(t *testing.T) {
	if ModelKindFor(machine.IntelUMA8()) != core.UMA {
		t.Error("UMA kind wrong")
	}
	if ModelKindFor(machine.IntelNUMA24()) != core.NUMA {
		t.Error("NUMA kind wrong")
	}
}

func TestTableIII(t *testing.T) {
	rows, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	// 5 CG classes + 4 x264 classes.
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	RenderTableIII(&buf, rows)
	if !strings.Contains(buf.String(), "CG") || !strings.Contains(buf.String(), "native") {
		t.Error("render missing entries")
	}
}

func TestFig3SmallMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(quickTune)
	spec := machine.IntelUMA8()
	d, err := r.Fig3(context.Background(), spec, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Total) != 3 {
		t.Fatalf("series length = %d", len(d.Total))
	}
	// Total = work + stall at every point.
	for i := range d.Total {
		if d.Total[i] != d.Work[i]+d.Stall[i] {
			t.Errorf("point %d: total %v != work %v + stall %v", i, d.Total[i], d.Work[i], d.Stall[i])
		}
	}
	// Paper observation 1: total cycles grow with cores for CG.C.
	if d.Total[2] <= d.Total[0] {
		t.Errorf("no contention growth: %v", d.Total)
	}
	// Paper observation 3: work cycles and misses roughly constant (<25%
	// deviation across the sweep).
	for i := 1; i < 3; i++ {
		if rel := relDiff(d.Work[i], d.Work[0]); rel > 0.25 {
			t.Errorf("work cycles vary too much: %v", d.Work)
		}
		if rel := relDiff(d.Misses[i], d.Misses[0]); rel > 0.25 {
			t.Errorf("misses vary too much: %v", d.Misses)
		}
	}
	var buf bytes.Buffer
	RenderFig3(&buf, d)
	if !strings.Contains(buf.String(), "CG.C") {
		t.Error("render missing title")
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestFig5UMA(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(quickTune)
	spec := machine.IntelUMA8()
	fig, err := r.Fig5(context.Background(), spec, []int{1, 2, 4, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Fit.Anchors) != 3 {
		t.Errorf("anchors = %v", fig.Fit.Anchors)
	}
	if len(fig.Validation.Cores) != 5 {
		t.Errorf("validation points = %d", len(fig.Validation.Cores))
	}
	// ω(1) must be ~0 on both sides.
	if fig.Validation.Measured[0] != 0 {
		t.Errorf("measured ω(1) = %v", fig.Validation.Measured[0])
	}
	var buf bytes.Buffer
	RenderModelFig(&buf, fig, "Fig. 5")
	if !strings.Contains(buf.String(), "measured") {
		t.Error("render incomplete")
	}
}

func TestTableIIRender(t *testing.T) {
	// Render path only (tiny data, no simulation).
	d := TableIIData{Cells: []TableIICell{
		{Machine: "IntelUMA8", Program: "EP", Size: workload.W, Cores: 4, Omega: 0.01},
		{Machine: "IntelUMA8", Program: "EP", Size: workload.W, Cores: 8, Omega: 0.02},
	}}
	var buf bytes.Buffer
	RenderTableII(&buf, d, []machine.Spec{machine.IntelUMA8()})
	out := buf.String()
	if !strings.Contains(out, "EP") || !strings.Contains(out, "0.01") {
		t.Errorf("render = %s", out)
	}
	if _, ok := d.Cell("IntelUMA8", "EP", workload.W, 4); !ok {
		t.Error("cell lookup failed")
	}
	if _, ok := d.Cell("x", "EP", workload.W, 4); ok {
		t.Error("bogus cell found")
	}
}

func TestFig4SmallMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	// Run Fig.4's sampling path on the UMA machine (cheapest) with tiny
	// tuning: verifies sampler wiring and burst analysis end to end.
	r := NewRunner(workload.Tuning{RefScale: 0.02})
	series, err := r.Fig4(context.Background(), machine.IntelUMA8())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Fatalf("series = %d", len(series))
	}
	var buf bytes.Buffer
	RenderFig4(&buf, series)
	if !strings.Contains(buf.String(), "verdict") {
		t.Error("render incomplete")
	}
}

func TestAblationLinearBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(quickTune)
	res, err := r.AblationLinearBaseline(context.Background(), machine.IntelUMA8(), "CG", workload.C)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderAblationLinear(&buf, res)
	if !strings.Contains(buf.String(), "M/M/1") {
		t.Error("render incomplete")
	}
}
