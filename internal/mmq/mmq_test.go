package mmq

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMM1ResponseTime(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	w, err := q.ResponseTime()
	if err != nil {
		t.Fatalf("ResponseTime: %v", err)
	}
	if !almostEqual(w, 2, 1e-12) {
		t.Errorf("W = %v, want 2", w)
	}
	wq, err := q.WaitTime()
	if err != nil {
		t.Fatalf("WaitTime: %v", err)
	}
	if !almostEqual(wq, 1, 1e-12) {
		t.Errorf("Wq = %v, want 1", wq)
	}
}

func TestMM1Unstable(t *testing.T) {
	for _, lam := range []float64{1, 1.5} {
		q := MM1{Lambda: lam, Mu: 1}
		if q.Stable() {
			t.Errorf("lambda=%v should be unstable", lam)
		}
		if _, err := q.ResponseTime(); !errors.Is(err, ErrUnstable) {
			t.Errorf("err = %v, want ErrUnstable", err)
		}
	}
}

func TestMM1BadParams(t *testing.T) {
	if _, err := (MM1{Lambda: -1, Mu: 1}).ResponseTime(); err == nil {
		t.Error("negative lambda should error")
	}
	if _, err := (MM1{Lambda: 0.1, Mu: 0}).ResponseTime(); err == nil {
		t.Error("zero mu should error")
	}
}

// Property: the M/M/1 response time grows monotonically with lambda and
// diverges as lambda -> mu.
func TestMM1MonotoneProperty(t *testing.T) {
	f := func(raw uint8) bool {
		// lambda1 < lambda2 < mu = 1
		l1 := float64(raw%90) / 100
		l2 := l1 + 0.05
		w1, err1 := (MM1{Lambda: l1, Mu: 1}).ResponseTime()
		w2, err2 := (MM1{Lambda: l2, Mu: 1}).ResponseTime()
		return err1 == nil && err2 == nil && w2 > w1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMG1ExponentialMatchesMM1(t *testing.T) {
	for _, lam := range []float64{0.2, 0.5, 0.8} {
		// Exponential service at rate 1: ES = 1, ES2 = 2/mu^2 = 2.
		g := MG1{Lambda: lam, ES: 1, ES2: 2}
		w, err := g.ResponseTime()
		if err != nil {
			t.Fatalf("MG1: %v", err)
		}
		wm, _ := (MM1{Lambda: lam, Mu: 1}).ResponseTime()
		if !almostEqual(w, wm, 1e-9) {
			t.Errorf("lambda=%v: MG1 exp W=%v, MM1 W=%v", lam, w, wm)
		}
	}
}

func TestMD1HalfTheQueueingOfMM1(t *testing.T) {
	// M/D/1 queueing delay is exactly half of M/M/1's at equal rates.
	lam, mu := 0.7, 1.0
	d := Deterministic(lam, 1/mu)
	wd, err := d.WaitTime()
	if err != nil {
		t.Fatal(err)
	}
	wm, _ := (MM1{Lambda: lam, Mu: mu}).WaitTime()
	if !almostEqual(wd, wm/2, 1e-9) {
		t.Errorf("M/D/1 Wq = %v, want half of M/M/1's %v", wd, wm)
	}
}

func TestMG1BadParams(t *testing.T) {
	if _, err := (MG1{Lambda: 0.1, ES: 1, ES2: 0.5}).WaitTime(); !errors.Is(err, ErrBadParam) {
		t.Errorf("ES2 < ES^2 must be rejected, err = %v", err)
	}
	if _, err := (MG1{Lambda: 2, ES: 1, ES2: 2}).WaitTime(); !errors.Is(err, ErrUnstable) {
		t.Errorf("unstable err = %v", err)
	}
}

// TestMM1QueueLengthError: the mean queue length follows from the
// response time by Little's law (L = lambda * W), so an unstable queue must
// fail before any length is derived — on the wait time as well.
func TestMM1QueueLengthError(t *testing.T) {
	if _, err := (MM1{Lambda: 2, Mu: 1}).WaitTime(); !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v", err)
	}
}

func TestMG1ResponseErrorPropagation(t *testing.T) {
	if _, err := (MG1{Lambda: 2, ES: 1, ES2: 2}).ResponseTime(); !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v", err)
	}
	if (MG1{Lambda: 0.1, ES: 1, ES2: 0.5}).Stable() {
		t.Error("invalid moments cannot be stable")
	}
}
