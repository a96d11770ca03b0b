package experiments

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestConfigHashStable pins the content address: the preset literals
// below hash to the values served as X-Simserved-Config-Hash and written
// by earlier versions, identical keys hash identically, any coordinate
// change re-hashes, and the output is 64 lowercase hex characters.
func TestConfigHashStable(t *testing.T) {
	for _, c := range []struct {
		key  RunKey
		want string
	}{
		{RunKey{Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 4, Scale: 0.1},
			"2d0f0a53642349a0e502e84e6a059be99d47d6cac16a74423bfc38a37d151946"},
		{RunKey{Machine: "AMDNUMA48", Program: "SP", Class: "C", Cores: 48, Scale: 0.02},
			"316d5ba7c18f2d8cf19131efaba87e830f44e1de722780fc6bd52646bd97bb8f"},
	} {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("%+v hashes to %s, want %s", c.key, got, c.want)
		}
		spec, err := machine.ByName(c.key.Machine)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(workload.Tuning{RefScale: c.key.Scale})
		if got := r.KeyFor(spec, c.key.Program, c.key.Class, c.key.Cores); got != c.key {
			t.Errorf("KeyFor on the preset = %+v, want %+v", got, c.key)
		}
	}

	key := RunKey{Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 4, Scale: 0.1}
	h := key.Hash()
	if h != key.Hash() {
		t.Fatal("same key hashed differently")
	}
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("Hash not 64-char lowercase hex: %q", h)
	}
	for _, other := range []RunKey{
		{Machine: "IntelNUMA24", Program: "CG", Class: "W", Cores: 4, Scale: 0.1},
		{Machine: "IntelUMA8", Program: "EP", Class: "W", Cores: 4, Scale: 0.1},
		{Machine: "IntelUMA8", Program: "CG", Class: "C", Cores: 4, Scale: 0.1},
		{Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 5, Scale: 0.1},
		{Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 4, Scale: 0.25},
		{Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 4, Scale: 0.1, Variant: "ab"},
	} {
		if other.Hash() == h {
			t.Errorf("distinct key %+v collided with %+v", other, key)
		}
	}
}

// cloneSpec returns a copy of s that shares no memory with it.
func cloneSpec(s machine.Spec) machine.Spec {
	s.Levels = append([]machine.CacheLevel(nil), s.Levels...)
	s.Links = append([][2]int(nil), s.Links...)
	if s.Bus != nil {
		bus := *s.Bus
		s.Bus = &bus
	}
	return s
}

// specLeaves calls fn on every exported leaf field reachable from v
// through structs, slices, arrays and non-nil pointers.
func specLeaves(v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				specLeaves(v.Field(i), path+"."+f.Name, fn)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			specLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			specLeaves(v.Elem(), path, fn)
		}
	default:
		fn(path, v)
	}
}

// TestRunKeyComplete checks that the run key covers the whole machine:
// changing any exported leaf of a preset's Spec gives a distinct,
// non-empty Variant; content-equal clones of Levels and Links key like
// the original; and Threads equal to the machine's cores keys like the
// default of zero.
func TestRunKeyComplete(t *testing.T) {
	r := NewRunner(quickTune)
	for _, base := range machine.All() {
		keyOf := func(spec machine.Spec) RunKey {
			return r.keyOf(RunItem{Spec: spec, Program: "CG", Class: workload.W, Cores: 4})
		}
		presetKey := keyOf(base)
		if presetKey.Variant != "" {
			t.Fatalf("%s: preset keys with variant %q", base.Name, presetKey.Variant)
		}

		seen := map[string]string{}
		leaves := 0
		specLeaves(reflect.ValueOf(base), "Spec", func(string, reflect.Value) { leaves++ })
		for i := 0; i < leaves; i++ {
			spec := cloneSpec(base)
			var changed string
			n := 0
			specLeaves(reflect.ValueOf(&spec).Elem(), "Spec", func(path string, leaf reflect.Value) {
				if n++; n-1 != i {
					return
				}
				changed = path
				switch leaf.Kind() {
				case reflect.String:
					leaf.SetString(leaf.String() + "'")
				case reflect.Bool:
					leaf.SetBool(!leaf.Bool())
				case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
					leaf.SetInt(leaf.Int() + 1)
				case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
					leaf.SetUint(leaf.Uint() + 1)
				case reflect.Float32, reflect.Float64:
					leaf.SetFloat(leaf.Float() + 0.5)
				default:
					t.Fatalf("%s: no mutation for leaf kind %s", path, leaf.Kind())
				}
			})
			v := keyOf(spec).Variant
			if v == "" {
				t.Errorf("%s: changing %s leaves the variant empty", base.Name, changed)
				continue
			}
			if prev, dup := seen[v]; dup {
				t.Errorf("%s: changing %s keys like changing %s", base.Name, changed, prev)
			}
			seen[v] = changed
		}
		if len(seen) < 20 {
			t.Errorf("%s: only %d leaves walked", base.Name, len(seen))
		}

		if got := keyOf(cloneSpec(base)); got != presetKey {
			t.Errorf("%s: a content-equal clone keys as %+v, want %+v", base.Name, got, presetKey)
		}
		variant := cloneSpec(base)
		variant.MSHRs++
		if a, b := keyOf(variant), keyOf(cloneSpec(variant)); a != b {
			t.Errorf("%s variant: a content-equal clone keys as %+v, want %+v", base.Name, b, a)
		}

		for _, spec := range []machine.Spec{base, variant} {
			item := RunItem{Spec: spec, Program: "CG", Class: workload.W, Cores: 4}
			all := item
			all.Threads = spec.TotalCores()
			if a, b := r.keyOf(item), r.keyOf(all); a != b {
				t.Errorf("%s: Threads=%d keys as %+v, Threads=0 as %+v", spec.Name, all.Threads, b, a)
			}
			over := item
			over.Threads = 2 * spec.TotalCores()
			windowed := item
			windowed.MissWindow = 1000
			for _, it := range []RunItem{over, windowed} {
				if k := r.keyOf(it); k.Variant == "" || k == r.keyOf(item) {
					t.Errorf("%s: %+v keys like the default run: %+v", spec.Name, it, k)
				}
			}
		}
	}
}

// TestStudiesDedupAndResume runs the Section V studies on one Runner and
// checks that their 21 runs simulate only the 14 distinct ones. IntelUMA8
// is already FCFS and has no interconnect hops (HopLatency 0), so the
// sensitivity study's FCFS and hopx2 variants and the controller
// ablation's FCFS pair are the baseline's runs, and oversubscription's 1x
// point is the baseline's full-machine run. A fresh
// Runner on the same journal then replays Fig. 4 and the sensitivity study
// without simulating, with identical output — so the miss windows
// round-trip through the journal.
func TestStudiesDedupAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	ctx := context.Background()
	spec := machine.IntelUMA8()
	tune := workload.Tuning{RefScale: 0.01}
	journal := filepath.Join(t.TempDir(), "studies.ndjson")
	newRunner := func() *Runner {
		r := NewRunner(tune)
		r.Metrics = telemetry.NewRegistry()
		if _, _, err := r.AttachJournal(journal); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.CloseJournal() })
		return r
	}
	render := func(r *Runner) string {
		var buf bytes.Buffer
		series, err := r.Fig4(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		RenderFig4(&buf, series)
		points, err := r.Sensitivity(ctx, spec, "CG", workload.C)
		if err != nil {
			t.Fatal(err)
		}
		RenderSensitivity(&buf, spec, "CG", workload.C, points)
		return buf.String()
	}

	r := newRunner()
	if _, err := r.Sensitivity(ctx, spec, "CG", workload.C); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AblationController(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Oversubscription(ctx, spec, "CG", workload.C); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Counter("runner_sim_total").Value(); got != 14 {
		t.Errorf("runner_sim_total = %d after the three studies, want 14", got)
	}
	want := render(r)
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	resumed := newRunner()
	if got := render(resumed); got != want {
		t.Errorf("resumed output differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := resumed.Metrics.Counter("runner_sim_total").Value(); got != 0 {
		t.Errorf("runner_sim_total = %d on resume, want 0", got)
	}
	// Nine Fig. 4 subjects plus the sensitivity study's ten distinct runs.
	if got := resumed.Metrics.Counter("runner_resumed_total").Value(); got != 9+10 {
		t.Errorf("runner_resumed_total = %d on resume, want 19", got)
	}
}
