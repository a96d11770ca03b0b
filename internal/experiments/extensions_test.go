package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(workload.Tuning{RefScale: 0.02})
	spec := machine.IntelUMA8()
	points, err := r.Oversubscription(context.Background(), spec, "CG", workload.W)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Threads != 8 || points[2].Threads != 32 {
		t.Errorf("thread counts = %d, %d", points[0].Threads, points[2].Threads)
	}
	// The total work is fixed (the problem is partitioned among however
	// many threads exist), so total cycles must stay in the same ballpark
	// while the run completes at every factor.
	for i, p := range points {
		if p.TotalCycles == 0 || p.Makespan == 0 {
			t.Errorf("point %d empty: %+v", i, p)
		}
	}
	if points[2].TotalCycles > 3*points[0].TotalCycles {
		t.Errorf("4x oversubscription inflated cycles unreasonably: %d vs %d",
			points[2].TotalCycles, points[0].TotalCycles)
	}
	var buf bytes.Buffer
	RenderOversubscription(&buf, spec, "CG", workload.C, points)
	if !strings.Contains(buf.String(), "Oversubscription") {
		t.Error("render incomplete")
	}
}

func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(workload.Tuning{RefScale: 0.1})
	spec := machine.IntelUMA8()
	points, err := r.Sensitivity(context.Background(), spec, "CG", workload.W)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Label != "baseline" {
		t.Errorf("first variant = %q", points[0].Label)
	}
	var buf bytes.Buffer
	RenderSensitivity(&buf, spec, "CG", workload.W, points)
	if !strings.Contains(buf.String(), "baseline") {
		t.Error("render incomplete")
	}
}

func TestSpeedupStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(workload.Tuning{RefScale: 0.1})
	spec := machine.IntelUMA8()
	d, err := r.SpeedupStudy(context.Background(), spec, "CG", workload.B, []int{1, 2, 4, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Measured) != 5 || len(d.Predicted) != 5 {
		t.Fatalf("lengths = %d, %d", len(d.Measured), len(d.Predicted))
	}
	// S(1) = 1 on both sides.
	if d.Measured[0] != 1 || d.Predicted[0] != 1 {
		t.Errorf("S(1) = %v / %v", d.Measured[0], d.Predicted[0])
	}
	if d.OptimalCores < 1 || d.OptimalCores > 8 {
		t.Errorf("optimal cores = %d", d.OptimalCores)
	}
	var buf bytes.Buffer
	RenderSpeedup(&buf, d)
	if !strings.Contains(buf.String(), "optimum") {
		t.Error("render incomplete")
	}
}

func TestDatFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	dir := t.TempDir()
	fig3 := Fig3Data{
		Machine: "TestMach",
		Cores:   []int{1, 2},
		Total:   []float64{10, 20},
		Stall:   []float64{4, 12},
		Work:    []float64{6, 8},
		Misses:  []float64{5, 5},
	}
	if err := WriteFig3Dat(dir, fig3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_TestMach.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1 10 4 6 5") {
		t.Errorf("fig3 dat = %q", data)
	}

	// Fig5-style file through the real pipeline on the tiny tune.
	r := NewRunner(workload.Tuning{RefScale: 0.05})
	fig, err := r.Fig5(context.Background(), machine.IntelUMA8(), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteModelFigDat(dir, "fig5", fig); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "fig5_IntelUMA8.dat"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2+3 { // two comment lines + three points
		t.Errorf("fig5 dat lines = %d:\n%s", len(lines), data)
	}

	// Fig4 CCDF files.
	series := []Fig4Series{{
		Program: "CG", Class: workload.S,
	}}
	series[0].Analysis.CCDF = []stats.CCDFPoint{{X: 1, P: 0.5}, {X: 10, P: 0.1}, {X: 100, P: 0}}
	if err := WriteFig4Dat(dir, series); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "fig4_CG_S.dat"))
	if err != nil {
		t.Fatal(err)
	}
	// Zero-probability final point excluded (log plot).
	if strings.Contains(string(data), "100 ") {
		t.Errorf("fig4 dat should drop zero-probability points:\n%s", data)
	}
	if !strings.Contains(string(data), "10 0.1") {
		t.Errorf("fig4 dat missing point:\n%s", data)
	}
}

func TestDatFilesBadDir(t *testing.T) {
	if err := WriteFig3Dat("/nonexistent-dir-xyz", Fig3Data{Machine: "m"}); err == nil {
		t.Error("bad directory accepted")
	}
}

func TestWriteJSON(t *testing.T) {
	dir := t.TempDir()
	d := TableIIData{Cells: []TableIICell{
		{Machine: "M", Program: "CG", Size: workload.C, Cores: 8, Omega: 2.5},
	}}
	if err := WriteJSON(dir, "tableII", d); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tableII.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Omega": 2.5`) {
		t.Errorf("json = %s", data)
	}
	if err := WriteJSON("/nonexistent-dir-xyz", "x", d); err == nil {
		t.Error("bad dir accepted")
	}
}

func TestWhiteBoxStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	r := NewRunner(workload.Tuning{RefScale: 0.1})
	spec := machine.IntelUMA8()
	d, err := r.WhiteBoxStudy(context.Background(), spec, "CG", workload.B, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.WhiteBox) != 3 {
		t.Fatalf("points = %d", len(d.WhiteBox))
	}
	if d.WhiteBox[0] != 0 {
		t.Errorf("whitebox omega(1) = %v", d.WhiteBox[0])
	}
	// Qualitative agreement: both sides must show growth from 1 to 8 cores.
	if d.Measured[2] <= 0.1 || d.WhiteBox[2] <= 0.1 {
		t.Errorf("expected contention at 8 cores: measured %v whitebox %v",
			d.Measured[2], d.WhiteBox[2])
	}
	// CG has a substantial dependent fraction (the gathers).
	if d.DepFraction < 0.1 {
		t.Errorf("dep fraction = %v", d.DepFraction)
	}
	var buf bytes.Buffer
	RenderWhiteBox(&buf, d)
	if !strings.Contains(buf.String(), "White-box") {
		t.Error("render incomplete")
	}
}
