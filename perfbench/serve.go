package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The serving workload replays the analytical traffic the repository's
// smoke scripts send to simserved: scripts/serve_smoke.sh and
// scripts/load_smoke.sh start it with -scale 0.1 -warm IntelUMA8/CG.W, then
// send predicts and whole-machine curves (no cores field, as loadgen
// -curve -cores 0 sends them). load_smoke.sh offers the predicts at 80
// requests/s and the curves at 4/s, so the mix holds 20 predicts per
// curve. The scripts' predicts ask for 3 or 6 cores; here the seed draws
// each predict's count from the whole machine. No measured production
// traffic backs these proportions.
const (
	serveMachine = "IntelUMA8"
	serveProgram = "CG"
	serveClass   = workload.W
	serveScale   = 0.1
)

// serveCycles is how many rounds of serveKinds the request list holds.
const serveCycles = 96

// Request kinds of the serve mix.
const (
	kindPredict = iota
	kindCurve
	kindCurveNDJSON
)

// serveKinds is one round of the mix: 40 predicts, one batched and one
// streamed curve. Each round is shuffled on its own, so every run of
// whole rounds holds these proportions exactly.
var serveKinds = func() []int {
	kinds := make([]int, 40, 42)
	return append(kinds, kindCurve, kindCurveNDJSON)
}()

// serveReq is one request of the mix with the answer it must get.
type serveReq struct {
	kind  int
	spec  machine.Spec
	cores []int
	body  []byte
	want  []model.Prediction // the predictor's direct answer per core
}

// drawMix builds the request list: serveCycles rounds of serveKinds, each
// in an order the seed shuffles. The seed also draws each predict's core
// count.
func drawMix(b *bench) ([]serveReq, error) {
	spec, err := machine.ByName(serveMachine)
	if err != nil {
		return nil, err
	}
	var mix []serveReq
	for r := 0; r < serveCycles; r++ {
		round := make([]serveReq, 0, len(serveKinds))
		for _, kind := range serveKinds {
			q := serveReq{kind: kind, spec: spec}
			if kind == kindPredict {
				q.cores = []int{1 + b.rng.Intn(spec.TotalCores())}
				q.body, err = json.Marshal(api.PredictRequest{Machine: spec.Name, Program: serveProgram, Class: string(serveClass), Cores: q.cores[0]})
			} else {
				q.cores = experiments.FullSweepCounts(spec)
				q.body, err = json.Marshal(api.CurveRequest{Machine: spec.Name, Program: serveProgram, Class: string(serveClass)})
			}
			if err != nil {
				return nil, err
			}
			round = append(round, q)
		}
		b.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		mix = append(mix, round...)
	}
	return mix, nil
}

// path is the endpoint the request goes to.
func (q *serveReq) path() string {
	if q.kind == kindPredict {
		return api.PathPredict
	}
	return api.PathCurve
}

// check verifies one response: status 200, the analytical tier, and each
// ω equal bit for bit to the predictor's direct answer.
func (q *serveReq) check(resp *http.Response, data []byte) error {
	if q.kind != kindPredict {
		return checkCurve(resp.StatusCode, data, q.kind == kindCurveNDJSON, q.want)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("predict: status %d", resp.StatusCode)
	}
	if tier := resp.Header.Get(api.HeaderTier); tier != string(model.TierAnalytical) {
		return fmt.Errorf("predict: tier %q", tier)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return fmt.Errorf("predict body: %w", err)
	}
	if w := q.want[0]; pr.Cores != w.Cores || math.Float64bits(pr.Omega) != math.Float64bits(w.Omega) {
		return fmt.Errorf("predict n=%d: omega %v, want %v", w.Cores, pr.Omega, w.Omega)
	}
	return nil
}

// warmPredictor fits the serve pair on a fresh one-worker runner and
// checks that the fit answers every core count analytically.
func warmPredictor(ctx context.Context) (*model.Predictor, error) {
	spec, err := machine.ByName(serveMachine)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunner(workload.Tuning{RefScale: serveScale})
	runner.Jobs = 1
	pred := model.New(runner)
	if _, err := pred.Warm(ctx, spec, serveProgram, serveClass); err != nil {
		return nil, fmt.Errorf("warm %s/%s.%s: %w", spec.Name, serveProgram, serveClass, err)
	}
	for n := 1; n <= spec.TotalCores(); n++ {
		if _, reason := pred.Analytical(spec, serveProgram, serveClass, n); reason != "" {
			return nil, fmt.Errorf("%s/%s.%s at scale %g declines n=%d (%s); the serve pair must pass the confidence gates",
				spec.Name, serveProgram, serveClass, serveScale, n, reason)
		}
	}
	return pred, nil
}

// runServe times closed-loop requests from one client connection to a
// warmed simserved, cycling through the seeded mix in whole rounds.
func runServe(b *bench) (err error) {
	mix, err := drawMix(b)
	if err != nil {
		return err
	}
	b.group = len(serveKinds)
	var pred *model.Predictor
	var ep *endpoint
	defer func() {
		if ep != nil {
			err = errors.Join(err, ep.close())
		}
	}()

	// Set-up: warm a fresh predictor, start its server, compute every
	// expected answer and send one untimed request.
	err = b.setup(func() error {
		if ep != nil {
			if err := ep.close(); err != nil {
				return err
			}
			ep = nil
		}
		p, err := warmPredictor(context.Background())
		if err != nil {
			return err
		}
		pred = p
		for i := range mix {
			q := &mix[i]
			if q.kind == kindPredict {
				w, _ := pred.Analytical(q.spec, serveProgram, serveClass, q.cores[0])
				q.want = []model.Prediction{w}
			} else {
				q.want, _ = pred.AnalyticalCurve(q.spec, serveProgram, serveClass, q.cores)
			}
		}
		if ep, err = serve(pred, nil); err != nil {
			return err
		}
		r := b.request(ep, &mix[0], telemetry.SpanContext{})
		return r.err
	})
	if err != nil {
		return err
	}

	traced := ep
	if b.led != nil {
		pred.Metrics = b.led.metrics
		if traced, err = serve(pred, b.led.tracer); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, traced.close()) }()
	}
	points, analytical := 0, 0
	b.timed(func(i int, tr bool) opResult {
		q := &mix[i%len(mix)]
		var r opResult
		if tr {
			sc := telemetry.DeriveSpanContext(b.seed, int64(i))
			if r = b.request(traced, q, sc); r.err == nil {
				b.led.endOp(sc, r.lat, 0)
			}
		} else {
			r = b.request(ep, q, telemetry.SpanContext{})
		}
		// A checked answer is analytical at every point.
		points += len(q.want)
		if r.err == nil {
			analytical += len(q.want)
		}
		return r
	})
	if b.led != nil {
		b.layer("server.analytical_ratio", ratio(float64(analytical), float64(points)), "points", points)
		b.layer("model.declines", float64(b.led.metrics.Counter("model_declines_total").Value()), "ops", b.attempted)
		// The model's own cost for the mix, without HTTP: ten passes.
		for pass := 0; pass < 10; pass++ {
			for i := range mix {
				q := &mix[i]
				if q.kind == kindPredict {
					b.led.timeAnalytical(pred, q.spec, serveProgram, serveClass, q.cores)
				} else {
					b.led.timeCurve(pred, q.spec, serveProgram, serveClass, q.cores)
				}
			}
		}
	}
	return nil
}

// request sends one request of the mix and checks its answer. Its latency
// ends with the body.
func (b *bench) request(ep *endpoint, q *serveReq, sc telemetry.SpanContext) opResult {
	start := time.Now()
	resp, err := ep.post(q.path(), q.body, q.kind == kindCurveNDJSON, sc)
	if err != nil {
		return opResult{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	if err := q.check(resp, data); err != nil {
		return opResult{err: err}
	}
	return opResult{lat: lat}
}
