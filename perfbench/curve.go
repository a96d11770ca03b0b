package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The cold-curve workload: SP.C on AMDNUMA48, the anchor plan plus
// curveExtras core counts the seed draws from curveExtraPool.
const (
	curveProgram = "SP"
	curveScale   = 0.02
	curveExtras  = 3
	// curveMaxResidual relaxes the analytical tier's residual gate, as
	// simserved -max-residual does. SP.C's AMDNUMA48 fit reproduces its
	// own anchors within 30%, above the 10% default, and the repeat curve
	// after each op must come back analytical.
	curveMaxResidual = 0.5
)

// curveAnchors is the machine's anchor plan, the points a fit needs.
func curveAnchors(spec machine.Spec) []int {
	return core.PaperInputs(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
}

// curveExtraPool lists the core counts extra points are drawn from: past
// the first socket, so each extra point sends traffic over the
// interconnect, and outside the anchor plan.
func curveExtraPool(spec machine.Spec) []int {
	anchor := map[int]bool{}
	for _, n := range curveAnchors(spec) {
		anchor[n] = true
	}
	var pool []int
	for n := spec.CoresPerSocket + 2; n <= spec.TotalCores(); n++ {
		if !anchor[n] {
			pool = append(pool, n)
		}
	}
	return pool
}

// runCurve times one streamed /v1/curve per op, each on a fresh
// in-process simserved, from send to the summary frame.
func runCurve(b *bench) error {
	spec := machine.AMDNUMA48()
	anchors := curveAnchors(spec)
	pool := curveExtraPool(spec)
	// A round of ops draws every count of the pool once, in an order the
	// seed shuffles. The points differ in host cost, so whole rounds give
	// every run the same work whatever the seed.
	if len(pool)%curveExtras != 0 {
		return fmt.Errorf("extra pool of %d counts does not split into ops of %d", len(pool), curveExtras)
	}
	b.group = len(pool) / curveExtras

	// Set-up: a fresh instance and one untimed cold curve over the anchors.
	err := b.setup(func() error {
		_, err := b.coldCurve(spec, anchors, false, telemetry.SpanContext{})
		return err
	})
	if err != nil {
		return err
	}

	var anchorPts []sim.Result
	var order []int
	b.timed(func(i int, traced bool) opResult {
		if i%b.group == 0 {
			order = b.rng.Perm(len(pool))
		}
		cores := append([]int(nil), anchors...)
		for _, k := range order[i%b.group*curveExtras:][:curveExtras] {
			cores = append(cores, pool[k])
		}
		sort.Ints(cores)
		var sc telemetry.SpanContext
		if traced {
			sc = telemetry.DeriveSpanContext(b.seed, int64(i))
		}
		c, err := b.coldCurve(spec, cores, traced, sc)
		if err != nil {
			return opResult{err: err}
		}
		if anchorPts == nil {
			for _, n := range anchors {
				anchorPts = append(anchorPts, c.results[n])
			}
		}
		return opResult{lat: c.lat}
	})

	if b.led == nil {
		return nil
	}
	if anchorPts == nil {
		return errors.New("no curve op succeeded")
	}
	// Only traced ops' predictors count declines: each cold curve declines
	// every point (no fit yet), the repeat curve none.
	b.layer("model.declines", float64(b.led.metrics.Counter("model_declines_total").Value()), "traced ops", len(b.led.tracedOps))
	b.simLayers(spec, anchorPts)
	return b.genLayers(curveProgram, curveScale, spec.TotalCores())
}

// curveOp is what one cold curve measured.
type curveOp struct {
	lat     time.Duration
	events  uint64
	results map[int]sim.Result
}

// coldCurve starts a fresh instance, streams one curve over cores from it
// and checks the answer: every point simulated and equal to the reference
// table, then an untimed repeat curve that must come back analytical.
func (b *bench) coldCurve(spec machine.Spec, cores []int, traced bool, sc telemetry.SpanContext) (c curveOp, err error) {
	runner := experiments.NewRunner(workload.Tuning{RefScale: curveScale})
	runner.Jobs = 1
	pred := model.New(runner)
	pred.MaxResidual = curveMaxResidual
	var tracer *telemetry.Tracer
	if traced {
		tracer = b.led.tracer
		runner.Tracer, runner.Metrics = tracer, b.led.metrics
		pred.Tracer, pred.Metrics = tracer, b.led.metrics
	}
	ep, err := serve(pred, tracer)
	if err != nil {
		return c, err
	}
	defer func() { err = errors.Join(err, ep.close()) }()

	body, err := json.Marshal(api.CurveRequest{Machine: spec.Name, Program: curveProgram, Class: string(workload.C), Cores: cores})
	if err != nil {
		return c, err
	}
	start := time.Now()
	resp, err := ep.post(api.PathCurve, body, true, sc)
	if err != nil {
		return c, err
	}
	var points []api.CurvePoint
	var summary *api.CurveSummary
	dec := json.NewDecoder(resp.Body)
	for summary == nil {
		var f api.CurveFrame
		if err := dec.Decode(&f); err != nil {
			resp.Body.Close()
			return c, fmt.Errorf("curve stream: %w", err)
		}
		if f.Point != nil {
			points = append(points, *f.Point)
		}
		summary = f.Summary
	}
	c.lat = time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("curve: status %d", resp.StatusCode)
	}
	if summary.Simulation != len(cores) || len(points) != len(cores) {
		return c, fmt.Errorf("cold curve: %d points, %d simulated, want %d", len(points), summary.Simulation, len(cores))
	}

	c.results = make(map[int]sim.Result, len(cores))
	for _, pt := range points {
		if pt.Tier != string(model.TierSimulation) || pt.Error != "" {
			return c, fmt.Errorf("cold curve point %d: tier %q error %q", pt.Cores, pt.Tier, pt.Error)
		}
		key := runner.KeyFor(spec, curveProgram, workload.C, pt.Cores)
		res, ok := runner.Cached(key)
		if !ok {
			return c, fmt.Errorf("cold curve point %d is not in the runner cache", pt.Cores)
		}
		if err := checkPoint(key, res); err != nil {
			return c, err
		}
		if pt.Cycles != float64(res.TotalCycles) || pt.MakespanCycles != float64(res.Makespan) {
			return c, fmt.Errorf("cold curve point %d: wire cycles %g/%g, simulated %d/%d",
				pt.Cores, pt.Cycles, pt.MakespanCycles, res.TotalCycles, res.Makespan)
		}
		c.results[pt.Cores] = res
		c.events += res.Events
	}
	if traced {
		b.led.endOp(sc, c.lat, c.events)
		b.led.timeAnalytical(pred, spec, curveProgram, workload.C, cores)
		b.led.timeCurve(pred, spec, curveProgram, workload.C, cores)
	}
	return c, b.repeatCurve(pred, spec, cores)
}

// repeatCurve asks an untraced endpoint over the same predictor for the
// curve again: the cold curve refitted the pair, so every point must be
// analytical and equal, bit for bit, to the predictor's own answer.
func (b *bench) repeatCurve(pred *model.Predictor, spec machine.Spec, cores []int) (err error) {
	ep, err := serve(pred, nil)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ep.close()) }()
	body, err := json.Marshal(api.CurveRequest{Machine: spec.Name, Program: curveProgram, Class: string(workload.C), Cores: cores})
	if err != nil {
		return err
	}
	resp, err := ep.post(api.PathCurve, body, false, telemetry.SpanContext{})
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	want, _ := pred.AnalyticalCurve(spec, curveProgram, workload.C, cores)
	return checkCurve(resp.StatusCode, data, false, want)
}

// endpoint is one in-process simserved HTTP server on a loopback listener
// and a client that holds at most one connection to it.
type endpoint struct {
	url    string
	client *http.Client
	srv    *http.Server
	served chan error
}

// serve starts a simserved handler over pred on a free loopback port.
func serve(pred server.Predictor, tracer *telemetry.Tracer) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{Predictor: pred, Tracer: tracer})
	e := &endpoint{
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		srv:    &http.Server{Handler: s.Handler()},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// post sends one request body; sc, when valid, travels as traceparent so
// the server's spans join the benchmark's op.
func (e *endpoint) post(path string, body []byte, ndjson bool, sc telemetry.SpanContext) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", api.ContentTypeJSON)
	if ndjson {
		req.Header.Set("Accept", api.ContentTypeNDJSON)
	}
	if sc.Valid() {
		req.Header.Set(api.HeaderTraceparent, sc.Traceparent())
	}
	return e.client.Do(req)
}

// close shuts the server down and waits for its serve loop to return.
func (e *endpoint) close() error {
	e.client.CloseIdleConnections()
	err := e.srv.Shutdown(context.Background())
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// checkCurve checks one curve response body, batched or NDJSON: status
// 200, every point analytical, and each ω equal bit for bit to want.
func checkCurve(status int, data []byte, ndjson bool, want []model.Prediction) error {
	if status != http.StatusOK {
		return fmt.Errorf("curve: status %d: %s", status, bytes.TrimSpace(data))
	}
	var points []api.CurvePoint
	var summary api.CurveSummary
	if ndjson {
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var f api.CurveFrame
			if err := dec.Decode(&f); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("curve stream: %w", err)
			}
			if f.Point != nil {
				points = append(points, *f.Point)
			}
			if f.Summary != nil {
				summary = *f.Summary
			}
		}
	} else {
		var resp api.CurveResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("curve body: %w", err)
		}
		points, summary = resp.Points, resp.Summary
	}
	if summary.Analytical != len(want) || len(points) != len(want) {
		return fmt.Errorf("curve: %d points, %d analytical, want %d analytical", len(points), summary.Analytical, len(want))
	}
	for i, pt := range points {
		w := want[i]
		if pt.Tier != string(model.TierAnalytical) || pt.Cores != w.Cores || math.Float64bits(pt.Omega) != math.Float64bits(w.Omega) {
			return fmt.Errorf("curve point %d: cores %d tier %q omega %v, want cores %d analytical omega %v",
				i, pt.Cores, pt.Tier, pt.Omega, w.Cores, w.Omega)
		}
	}
	return nil
}
