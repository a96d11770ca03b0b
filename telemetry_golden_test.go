package repro

// Golden fixtures for the telemetry artifacts: one observed CG.W run on
// the UMA machine pins the NDJSON trace, the sampled timeline table and
// the Prometheus metrics snapshot byte-for-byte, through the same writer
// the memsim -telemetry flag uses. The simulator's determinism contract
// extends to telemetry (sampling reads engine state without perturbing
// it), so any diff here is a behavior change.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestGoldenTelemetryArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	wl, err := workload.NewTuned("CG", workload.W, goldenTune)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var trace bytes.Buffer
	cfg := sim.Config{
		Spec:  machine.IntelUMA8(),
		Cores: 8,
		Observe: &sim.ObserveConfig{
			Interval: 5000,
			Tracer:   telemetry.NewTracer(&trace),
			Registry: reg,
		},
	}
	res, err := sim.Run(context.Background(), cfg, wl.Streams(cfg.Spec.TotalCores()))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "telemetry_trace.ndjson", trace.Bytes())

	dir := t.TempDir()
	if _, err := experiments.WriteTelemetryArtifacts(dir, "run", res.Telemetry, reg); err != nil {
		t.Fatal(err)
	}
	for fixture, file := range map[string]string{
		"telemetry_timeline.dat": "run.timeline.dat",
		"telemetry_metrics.prom": "run.metrics.prom",
	} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fixture, got)
	}
}
