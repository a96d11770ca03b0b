package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the wire-compatibility golden fixtures")

// wireCases pins one fully-populated value per wire type. The golden
// fixtures under testdata/ are the v1 schema contract: a renamed or
// removed json tag, a dropped omitempty, or a reordered field changes
// the encoding and fails the byte-exact comparison below. Additions are
// allowed — they re-baseline with -update — renames and removals mean a
// /v2, not a fixture edit.
var wireCases = []struct {
	golden string
	v      any
}{
	{"predict_request.golden.json", PredictRequest{
		Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 6, Scale: 0.1,
	}},
	{"predict_request_sparse.golden.json", PredictRequest{
		Machine: "IntelUMA8", Program: "EP", Class: "W",
	}},
	{"predict_response.golden.json", PredictResponse{
		Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: 6, Scale: 0.1,
		Omega: 0.4375, Cycles: 1437500, BaselineCycles: 1000000,
		MakespanCycles: 239583.3333, MCUtilization: []float64{0.72, 0.68},
		Tier: TierAnalytical, ConfigHash: "5ec3e4f0c9a1",
		Fit: &Fit{Anchors: []int{1, 2, 3, 4}, R2: 0.9987, Residual: 0.013, SaturationCores: ptr(9.44)},
	}},
	{"predict_response_sim.golden.json", PredictResponse{
		Machine: "IntelUMA8", Program: "EP", Class: "W", Cores: 8, Scale: 0.1,
		Omega: 0.9112, Cycles: 1911200, BaselineCycles: 1000000,
		MakespanCycles: 238900, MCUtilization: []float64{0.81},
		Tier: TierSimulation, ConfigHash: "77aa01bc",
	}},
	{"error.golden.json", Error{Error: "unknown machine \"Intel9\""}},
	{"curve_request.golden.json", CurveRequest{
		Machine: "IntelUMA8", Program: "CG", Class: "W", Cores: []int{1, 2, 4, 8}, Scale: 0.1,
	}},
	{"curve_request_sparse.golden.json", CurveRequest{
		Machine: "IntelUMA8", Program: "CG", Class: "W",
	}},
	{"curve_response.golden.json", CurveResponse{
		Machine: "IntelUMA8", Program: "CG", Class: "W", Scale: 0.1,
		Points: []CurvePoint{
			{Cores: 1, Omega: 0, Cycles: 1000000, BaselineCycles: 1000000,
				MakespanCycles: 1000000, MCUtilization: []float64{0.2},
				Tier: TierAnalytical, ConfigHash: "aa01"},
			{Cores: 8, Omega: 0.9112, Cycles: 1911200, BaselineCycles: 1000000,
				MakespanCycles: 238900, MCUtilization: []float64{0.81},
				Tier: TierSimulation, ConfigHash: "bb02"},
			{Cores: 4, Error: "shed: tenant queue full"},
		},
		Summary: CurveSummary{
			Points: 3, Analytical: 1, Simulation: 1, Shed: 1,
			Fit: &Fit{Anchors: []int{1, 2, 3, 4}, R2: 0.9987, Residual: 0.013, SaturationCores: ptr(9.44)},
		},
	}},
	{"curve_frame_point.golden.json", CurveFrame{
		Point: &CurvePoint{Cores: 3, Omega: 0.21, Cycles: 1210000,
			BaselineCycles: 1000000, MakespanCycles: 403333.3333,
			MCUtilization: []float64{0.5}, Tier: TierAnalytical, ConfigHash: "cc03"},
	}},
	{"curve_frame_summary.golden.json", CurveFrame{
		Summary: &CurveSummary{Points: 8, Analytical: 8, Simulation: 0},
	}},
	{"catalog_response.golden.json", CatalogResponse{
		Scale: 0.1,
		Machines: []CatalogMachine{
			{Name: "IntelUMA8", Kind: "uma", Sockets: 2, CoresPerSocket: 4, TotalCores: 8},
		},
		Programs: []CatalogProgram{
			{Name: "CG", Classes: []string{"S", "W", "A"}, Description: "conjugate gradient"},
		},
	}},
	{"healthz_response.golden.json", HealthzResponse{
		Status: "ok", Scale: 0.1, Fits: 1, CachedRuns: 12,
		QueueDepth: 0, QueueCap: 64, TenantCap: 16, Tenants: 2,
		PredictP50Ms: 0.004, PredictP99Ms: 18.5,
	}},
}

// TestWireGolden proves the encoded form of every v1 wire type is
// byte-identical to the committed fixtures — the schema survived
// whatever refactor this tree carries. Re-baseline deliberately with
// `go test ./internal/api -run WireGolden -update`.
func TestWireGolden(t *testing.T) {
	for _, tc := range wireCases {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tc.v); err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("update: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to baseline): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("wire encoding drifted from %s\n got: %s\nwant: %s", path, buf.Bytes(), want)
			}
		})
	}
}

// TestWireRoundTrip proves every fixture decodes back into an equal
// value: no field is write-only, no omitempty hides a decode mismatch.
func TestWireRoundTrip(t *testing.T) {
	for _, tc := range wireCases {
		t.Run(tc.golden, func(t *testing.T) {
			blob, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			// Decode into a fresh value of the same dynamic type, then
			// re-encode: byte equality means a lossless round trip
			// without reflect-based deep comparison.
			back, err := json.Marshal(decodeAs(t, tc.v, blob))
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(blob, back) {
				t.Errorf("lossy round trip\n got: %s\nwant: %s", back, blob)
			}
		})
	}
}

// decodeAs unmarshals blob into a new value of v's concrete type.
func decodeAs(t *testing.T, v any, blob []byte) any {
	t.Helper()
	var out any
	var err error
	switch v.(type) {
	case PredictRequest:
		x := PredictRequest{}
		err = json.Unmarshal(blob, &x)
		out = x
	case PredictResponse:
		x := PredictResponse{}
		err = json.Unmarshal(blob, &x)
		out = x
	case Error:
		x := Error{}
		err = json.Unmarshal(blob, &x)
		out = x
	case CurveRequest:
		x := CurveRequest{}
		err = json.Unmarshal(blob, &x)
		out = x
	case CurveResponse:
		x := CurveResponse{}
		err = json.Unmarshal(blob, &x)
		out = x
	case CurveFrame:
		x := CurveFrame{}
		err = json.Unmarshal(blob, &x)
		out = x
	case CatalogResponse:
		x := CatalogResponse{}
		err = json.Unmarshal(blob, &x)
		out = x
	case HealthzResponse:
		x := HealthzResponse{}
		err = json.Unmarshal(blob, &x)
		out = x
	default:
		t.Fatalf("decodeAs: unhandled type %T", v)
	}
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// ptr returns a pointer to v, for the optional numeric wire fields.
func ptr(v float64) *float64 { return &v }
