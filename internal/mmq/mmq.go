// Package mmq implements the queueing-theory building blocks behind the
// paper's analytical model: the open M/M/1 queue (the model the paper fits
// to programs with large, non-bursty memory contention) and the M/G/1
// generalization that checks it against non-exponential service times.
//
// Rates are expressed in requests per cycle, times in cycles, so results
// plug directly into the cycle-count model of internal/core.
package mmq

import "errors"

// ErrUnstable is returned by open-queue formulas when the offered load
// reaches or exceeds capacity (utilization >= 1), where steady-state
// quantities diverge.
var ErrUnstable = errors.New("mmq: offered load at or above capacity")

// ErrBadParam is returned for non-positive rates or invalid service moments.
var ErrBadParam = errors.New("mmq: invalid parameter")

// MM1 is an M/M/1 queue with Poisson arrivals at rate Lambda and
// exponential service at rate Mu (both per cycle).
type MM1 struct {
	Lambda float64
	Mu     float64
}

// Utilization returns rho = lambda/mu.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// Stable reports whether the queue has a steady state (rho < 1).
func (q MM1) Stable() bool {
	return q.Lambda >= 0 && q.Mu > 0 && q.Lambda < q.Mu
}

// ResponseTime returns the mean sojourn time (wait + service):
// W = 1/(mu - lambda). This is exactly Creq(n) in the paper's equation (5)
// with lambda = n*L.
func (q MM1) ResponseTime() (float64, error) {
	if q.Mu <= 0 || q.Lambda < 0 {
		return 0, ErrBadParam
	}
	if !q.Stable() {
		return 0, ErrUnstable
	}
	return 1 / (q.Mu - q.Lambda), nil
}

// WaitTime returns the mean time spent queueing before service begins:
// Wq = rho/(mu - lambda).
func (q MM1) WaitTime() (float64, error) {
	w, err := q.ResponseTime()
	if err != nil {
		return 0, err
	}
	return w - 1/q.Mu, nil
}

// MG1 is an M/G/1 queue characterized by the first two moments of the
// service time: mean ES and second moment ES2. It models memory controllers
// whose service time is not exponential (e.g., deterministic DRAM timing or
// a row-buffer hit/miss mixture).
type MG1 struct {
	Lambda float64
	ES     float64 // mean service time (cycles)
	ES2    float64 // second moment of service time (cycles^2)
}

// Utilization returns rho = lambda*ES.
func (q MG1) Utilization() float64 { return q.Lambda * q.ES }

// Stable reports whether the queue has a steady state.
func (q MG1) Stable() bool {
	return q.Lambda >= 0 && q.ES > 0 && q.ES2 >= q.ES*q.ES && q.Utilization() < 1
}

// WaitTime returns the Pollaczek–Khinchine mean queueing delay:
// Wq = lambda*ES2 / (2*(1-rho)).
func (q MG1) WaitTime() (float64, error) {
	if q.Lambda < 0 || q.ES <= 0 || q.ES2 < q.ES*q.ES {
		return 0, ErrBadParam
	}
	if !q.Stable() {
		return 0, ErrUnstable
	}
	return q.Lambda * q.ES2 / (2 * (1 - q.Utilization())), nil
}

// ResponseTime returns Wq + ES.
func (q MG1) ResponseTime() (float64, error) {
	wq, err := q.WaitTime()
	if err != nil {
		return 0, err
	}
	return wq + q.ES, nil
}

// Deterministic returns the MG1 for deterministic service of duration s
// (ES2 = s^2), i.e. an M/D/1 queue.
func Deterministic(lambda, s float64) MG1 {
	return MG1{Lambda: lambda, ES: s, ES2: s * s}
}
