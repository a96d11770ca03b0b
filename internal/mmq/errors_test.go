package mmq

import (
	"errors"
	"math"
	"testing"
)

// TestMM1ErrorPaths pins the MM1 error contract at the stability boundary:
// rho -> 1 from below stays finite, rho >= 1 is ErrUnstable, and malformed
// rates are ErrBadParam. The model-fitting code in internal/core relies on
// this distinction to tell "saturated machine" apart from "bad input".
func TestMM1ErrorPaths(t *testing.T) {
	type want struct {
		err     error // nil means the call must succeed
		finite  bool  // when err == nil, the value must be finite
		atLeast float64
	}
	cases := []struct {
		name string
		q    MM1
		want want
	}{
		{"lambda==mu", MM1{Lambda: 1, Mu: 1}, want{err: ErrUnstable}},
		{"lambda>mu", MM1{Lambda: 2, Mu: 1}, want{err: ErrUnstable}},
		{"mu=0", MM1{Lambda: 1, Mu: 0}, want{err: ErrBadParam}},
		{"mu<0", MM1{Lambda: 1, Mu: -1}, want{err: ErrBadParam}},
		{"lambda<0", MM1{Lambda: -1, Mu: 1}, want{err: ErrBadParam}},
		{"empty-queue", MM1{Lambda: 0, Mu: 1}, want{finite: true, atLeast: 1}},
		// Just below saturation the queue is legal and the response time is
		// huge but finite — the regime the paper's omega curves climb into.
		{"rho-just-under-1", MM1{Lambda: 1 - 1e-9, Mu: 1}, want{finite: true, atLeast: 1e8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, call := range map[string]func() (float64, error){
				"ResponseTime": tc.q.ResponseTime,
				"WaitTime":     tc.q.WaitTime,
			} {
				v, err := call()
				if tc.want.err != nil {
					if !errors.Is(err, tc.want.err) {
						t.Errorf("%s: err = %v, want %v", name, err, tc.want.err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: unexpected error %v", name, err)
					continue
				}
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("%s = %v, want finite", name, v)
				}
				if name == "ResponseTime" && v < tc.want.atLeast {
					t.Errorf("%s = %v, want >= %v", name, v, tc.want.atLeast)
				}
			}
		})
	}
}
