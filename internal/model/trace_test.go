package model

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestFitTraceOmitsInfinities stores two fits whose numbers JSON cannot
// carry — one that never saturates (flat C(n)), one with an anchor past
// its saturation point (+Inf residual) — and requires every traced line
// to decode, with the infinite field left out of its model.fit event.
func TestFitTraceOmitsInfinities(t *testing.T) {
	var buf bytes.Buffer
	p := New(experiments.NewRunner(workload.Tuning{RefScale: 0.01}))
	p.Tracer = telemetry.NewTracer(&buf)

	flat := []core.Measurement{{Cores: 1, Cycles: 1e6, LLCMisses: 1e4}, {Cores: 4, Cycles: 1e6, LLCMisses: 1e4}}
	past := []core.Measurement{
		{Cores: 1, Cycles: 1e6, LLCMisses: 1e4}, {Cores: 2, Cycles: 20e6, LLCMisses: 1e4},
		{Cores: 12, Cycles: 50e6, LLCMisses: 1e4}, {Cores: 13, Cycles: 50e6, LLCMisses: 1e4},
		{Cores: 24, Cycles: 50e6, LLCMisses: 1e4},
	}
	for _, c := range []struct {
		spec    machine.Spec
		program string
		meas    []core.Measurement
		omitted string
	}{
		{machine.IntelUMA8(), "EP", flat, "saturation_cores"},
		{machine.IntelNUMA24(), "CG", past, "residual"},
	} {
		fit, err := experiments.FitAnchors(c.spec, c.meas, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.store(c.spec, c.program, workload.W, fit)
	}

	if strings.Contains(buf.String(), "!ERROR") {
		t.Errorf("trace carries an encoding error:\n%s", buf.String())
	}
	var fits []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q does not decode: %v", sc.Text(), err)
		}
		if ev["event"] == "model.fit" {
			fits = append(fits, ev)
		}
	}
	if len(fits) != 2 {
		t.Fatalf("%d model.fit events, want 2", len(fits))
	}
	for i, omitted := range []string{"saturation_cores", "residual"} {
		if _, ok := fits[i][omitted]; ok {
			t.Errorf("model.fit %v carries %s", fits[i], omitted)
		}
		if _, ok := fits[i]["r2"]; !ok {
			t.Errorf("model.fit %v lost its finite r2", fits[i])
		}
	}
}
