package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// reference.json holds the simulated statistics of every point the sim
// workloads can run. A speed-only change to the simulator must reproduce
// them exactly; --write-reference regenerates the file.
//
//go:embed reference.json
var referenceJSON []byte

// refPoint is one simulated point's statistics.
type refPoint struct {
	Machine     string   `json:"machine"`
	Program     string   `json:"program"`
	Class       string   `json:"class"`
	Cores       int      `json:"cores"`
	Scale       float64  `json:"scale"`
	Events      uint64   `json:"events"`
	TotalCycles uint64   `json:"total_cycles"`
	Makespan    uint64   `json:"makespan"`
	OffChip     uint64   `json:"offchip_requests"`
	Remote      uint64   `json:"remote_requests"`
	MCServed    []uint64 `json:"mc_served"`
}

func pointOf(key experiments.RunKey, res sim.Result) refPoint {
	p := refPoint{
		Machine:     key.Machine,
		Program:     key.Program,
		Class:       string(key.Class),
		Cores:       key.Cores,
		Scale:       key.Scale,
		Events:      res.Events,
		TotalCycles: res.TotalCycles,
		Makespan:    res.Makespan,
		OffChip:     res.OffChipRequests,
		Remote:      res.RemoteRequests,
	}
	for _, st := range res.MCStats {
		p.MCServed = append(p.MCServed, st.Requests)
	}
	return p
}

var reference map[experiments.RunKey]refPoint

func init() {
	var pts []refPoint
	if err := json.Unmarshal(referenceJSON, &pts); err != nil {
		panic(fmt.Sprintf("perfbench: embedded reference.json: %v", err))
	}
	reference = make(map[experiments.RunKey]refPoint, len(pts))
	for _, p := range pts {
		key := experiments.RunKey{Machine: p.Machine, Program: p.Program, Class: workload.Class(p.Class), Cores: p.Cores, Scale: p.Scale}
		reference[key] = p
	}
}

// checkPoint compares one simulated point with the reference table.
func checkPoint(key experiments.RunKey, res sim.Result) error {
	want, ok := reference[key]
	if !ok {
		return fmt.Errorf("no reference point for %+v", key)
	}
	if got := pointOf(key, res); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("point differs from the reference:\n got  %+v\n want %+v", got, want)
	}
	return nil
}

// writeReference simulates every point the sim workloads can draw and
// writes the table to path.
func writeReference(path string) error {
	type plan struct {
		spec    machine.Spec
		program string
		scale   float64
		cores   []int
	}
	amd := machine.AMDNUMA48()
	plans := []plan{
		{machine.IntelUMA8(), sweepProgram, sweepScale, experiments.FullSweepCounts(machine.IntelUMA8())},
		{amd, curveProgram, curveScale, append(curveAnchors(amd), curveExtraPool(amd)...)},
	}
	var pts []refPoint
	for _, p := range plans {
		for _, n := range p.cores {
			r := experiments.NewRunner(workload.Tuning{RefScale: p.scale})
			r.Jobs = 1
			res, err := r.Run(context.Background(), p.spec, p.program, workload.C, n)
			if err != nil {
				return err
			}
			pts = append(pts, pointOf(r.KeyFor(p.spec, p.program, workload.C, n), res))
			fmt.Fprintf(os.Stderr, "perfbench: reference %s %s.C n=%d: %d events\n", p.spec.Name, p.program, n, res.Events)
		}
	}
	// One point per line keeps a changed point readable in a diff.
	var buf bytes.Buffer
	for i, p := range pts {
		line, err := json.Marshal(p)
		if err != nil {
			return err
		}
		sep := ",\n "
		if i == 0 {
			sep = "[\n "
		}
		buf.WriteString(sep)
		buf.Write(line)
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
