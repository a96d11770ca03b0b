package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// Record is one NDJSON line of the request log. Field set and order are
// pinned by a golden test — downstream tooling (jq recipes in
// docs/LOADGEN.md, the CI artifact consumers) greps these names.
//
//simcheck:allow(apilint) Record is the harness's NDJSON log schema, not an HTTP wire type; its contract is the golden file, not internal/api.
type Record struct {
	// Seq is the schedule index of the request.
	Seq int `json:"seq"`
	// ScheduledMs is the configured send offset from run start.
	ScheduledMs float64 `json:"scheduled_ms"`
	// SendMs is the actual send offset; SendMs−ScheduledMs is dispatch lag.
	SendMs float64 `json:"send_ms"`
	// FirstByteMs is the latency to the first response byte, and TotalMs
	// to the fully-read body. Both are 0 when the request errored before
	// any response arrived.
	FirstByteMs float64 `json:"first_byte_ms"`
	TotalMs     float64 `json:"total_ms"`
	// Status is the HTTP status, or 0 on transport error.
	Status int `json:"status"`
	// Tier echoes the X-Simserved-Tier response header ("" on errors).
	// On curve point records it is the point's tier field instead.
	Tier string `json:"tier"`
	// Tenant echoes the X-Simserved-Tenant request header, when set.
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the 128-bit trace ID (32 hex digits) sent in the W3C
	// traceparent header, derived deterministically from (Config.Seed,
	// Seq). It joins this record to the server's span log (cmd/traceview)
	// and to the X-Simserved-Trace response header.
	TraceID string `json:"trace_id,omitempty"`
	// ConfigHash echoes the X-Simserved-Config-Hash response header (the
	// point's config_hash field on curve point records): the content
	// address of the answered query ("" on errors and non-2xx).
	ConfigHash string `json:"config_hash,omitempty"`
	// Error is the transport error — or, on curve point records, the
	// point's error (shed, canceled, failed) — when any.
	Error string `json:"error,omitempty"`

	// Kind distinguishes curve-mode records: "curve" for the request
	// itself, "point" for each streamed curve point (sharing the
	// parent's Seq). Empty on predict-mode records, so the predict log
	// schema is byte-identical to before curve mode existed.
	Kind string `json:"kind,omitempty"`
	// Cores is the point's core count (curve point records only).
	Cores int `json:"cores,omitempty"`
	// PointMs is the offset from request send to the point's frame
	// arrival (curve point records only) — the per-point streaming
	// latency the batched mode cannot observe.
	PointMs float64 `json:"point_ms,omitempty"`
}

// Config wires one open-loop run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://localhost:8080".
	BaseURL string
	// Body is the POST payload sent on every request (a predict body, or
	// a curve body when Curve is set).
	Body []byte
	// Curve switches the harness to the streaming curve endpoint: each
	// request POSTs Body to /v1/curve with Accept: application/x-ndjson
	// and logs one "curve" record per request plus one "point" record
	// per streamed frame.
	Curve bool
	// Schedule holds the send offsets (see Schedule).
	Schedule []time.Duration
	// Tenant, when non-empty, is sent as X-Simserved-Tenant.
	Tenant string
	// Conns sizes the keep-alive connection pool. Zero means 4.
	Conns int
	// Client overrides the HTTP client (tests). Nil builds one from Conns.
	Client *http.Client
	// Seed derives each request's trace ID (with its Seq) via
	// telemetry.DeriveSpanContext, so a rerun of the same seeded schedule
	// regenerates the same trace IDs. Trace IDs are always derived and
	// logged; spans are only emitted when Tracer is set.
	Seed int64
	// Tracer, when non-nil, receives load.start and load.done events plus
	// one "load.request" client span per request, sharing the request's
	// derived trace ID so client and server waterfalls join.
	Tracer *telemetry.Tracer
}

// ErrNoSchedule reports a run with nothing to send.
var ErrNoSchedule = errors.New("load: empty schedule")

// Run drives the schedule open-loop: requests fire at their offsets
// regardless of how many are still in flight, so a slow server faces the
// configured offered load instead of throttling it. The returned records
// are ordered by Seq and complete — one per scheduled request (plus one
// per streamed point in curve mode), errors included. Cancelling ctx
// stops dispatching and aborts in-flight requests; the records
// dispatched so far are still returned, alongside the context's error.
func Run(ctx context.Context, cfg Config) ([]Record, error) {
	if len(cfg.Schedule) == 0 {
		return nil, ErrNoSchedule
	}
	client := cfg.Client
	if client == nil {
		conns := cfg.Conns
		if conns <= 0 {
			conns = 4
		}
		transport := &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		}
		client = &http.Client{Transport: transport}
		defer transport.CloseIdleConnections()
	}
	url := cfg.BaseURL + api.PathPredict
	if cfg.Curve {
		url = cfg.BaseURL + api.PathCurve
	}
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Emit("load.start",
			"url", url, "requests", len(cfg.Schedule), "tenant", cfg.Tenant, "seed", cfg.Seed)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records = make([]Record, 0, len(cfg.Schedule))
	)
	start := time.Now()
	// Created stopped: a timer that had already fired would leave a
	// stale tick in its channel (go 1.22 timer semantics) and release the
	// first wait early, dispatching ahead of schedule.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	dispatched := 0
	var runErr error
dispatch:
	for i, off := range cfg.Schedule {
		// An open loop never waits on completions — only on the clock.
		// Late wake-ups fire immediately, so the full schedule is always
		// offered; dispatch lag is visible as SendMs−ScheduledMs.
		if wait := time.Until(start.Add(off)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				runErr = ctx.Err()
				break dispatch
			case <-timer.C:
			}
		} else if err := ctx.Err(); err != nil {
			runErr = err
			break dispatch
		}
		dispatched++
		wg.Add(1)
		go func(seq int, scheduled time.Duration) {
			defer wg.Done()
			recs := fire(ctx, client, url, cfg, seq, scheduled, start)
			mu.Lock()
			records = append(records, recs...)
			mu.Unlock()
		}(i, off)
	}
	wg.Wait()
	// Stable, so a request's point records keep their stream order
	// behind their parent record.
	sort.SliceStable(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Emit("load.done",
			"dispatched", dispatched, "elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	}
	return records, runErr
}

// fire sends one request and measures it. Each request carries a
// deterministic traceparent derived from (cfg.Seed, seq); when the tracer
// is on, the client side is bracketed in a "load.request" span holding
// exactly that context, so the server's span tree hangs off it. The
// returned slice holds the request's record — followed, in curve mode,
// by one "point" record per streamed point (see readCurve).
func fire(ctx context.Context, client *http.Client, url string, cfg Config, seq int, scheduled time.Duration, start time.Time) []Record {
	sc := telemetry.DeriveSpanContext(cfg.Seed, int64(seq))
	rec := Record{
		Seq:         seq,
		ScheduledMs: durationMs(scheduled),
		Tenant:      cfg.Tenant,
		TraceID:     sc.Trace.String(),
	}
	if cfg.Curve {
		rec.Kind = "curve"
	}
	// sent is assigned before client.Do; the trace callback fires during
	// Do, so the read is ordered after the write.
	var sent time.Time
	var firstByte time.Duration
	trace := &httptrace.ClientTrace{
		GotFirstResponseByte: func() { firstByte = time.Since(sent) },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace),
		http.MethodPost, url, bytes.NewReader(cfg.Body))
	if err != nil {
		rec.Error = err.Error()
		return []Record{rec}
	}
	req.Header.Set("Content-Type", api.ContentTypeJSON)
	if cfg.Curve {
		req.Header.Set("Accept", api.ContentTypeNDJSON)
	}
	req.Header.Set(api.HeaderTraceparent, sc.Traceparent())
	if cfg.Tenant != "" {
		req.Header.Set(api.HeaderTenant, cfg.Tenant)
	}
	span := cfg.Tracer.StartSpanAt(sc, "load.request")
	defer func() { span.End("seq", rec.Seq, "status", rec.Status, "tier", rec.Tier) }()
	sent = time.Now()
	rec.SendMs = durationMs(sent.Sub(start))
	resp, err := client.Do(req)
	if err != nil {
		rec.Error = err.Error()
		return []Record{rec}
	}
	rec.Status = resp.StatusCode
	var points []Record
	if cfg.Curve {
		points = readCurve(resp.Body, &rec, sent)
	} else {
		readPredict(resp, &rec)
	}
	resp.Body.Close()
	rec.TotalMs = durationMs(time.Since(sent))
	if firstByte > 0 {
		rec.FirstByteMs = durationMs(firstByte)
	} else {
		rec.FirstByteMs = rec.TotalMs
	}
	return append([]Record{rec}, points...)
}

// readPredict drains a predict response into its record: the answering
// tier and, on success, the config hash, both from the headers. The body
// is discarded; a 429's error text is not logged.
func readPredict(resp *http.Response, rec *Record) {
	_, err := io.Copy(io.Discard, resp.Body)
	rec.Tier = resp.Header.Get(api.HeaderTier)
	if rec.Status >= 200 && rec.Status < 300 {
		rec.ConfigHash = resp.Header.Get(api.HeaderConfigHash)
	}
	if err != nil {
		rec.Error = err.Error()
	}
}

// readCurve reads a streaming curve response, frame by frame as it
// arrives, and returns one "point" record per streamed point, each
// stamped with its arrival offset from sent (PointMs) — the measurement
// that shows analytical points landing while simulation points are
// still running. A non-200 response's error text goes on the curve
// record.
func readCurve(body io.Reader, rec *Record, sent time.Time) []Record {
	if rec.Status != http.StatusOK {
		var apiErr api.Error
		if json.NewDecoder(body).Decode(&apiErr) == nil {
			rec.Error = apiErr.Error
		}
		return nil
	}
	points := make([]Record, 0, 8)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		arrived := time.Since(sent)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var frame api.CurveFrame
		if err := json.Unmarshal(line, &frame); err != nil {
			rec.Error = fmt.Sprintf("bad frame: %v", err)
			break
		}
		if frame.Point != nil {
			points = append(points, Record{
				Seq:        rec.Seq,
				Kind:       "point",
				Cores:      frame.Point.Cores,
				Tier:       frame.Point.Tier,
				ConfigHash: frame.Point.ConfigHash,
				PointMs:    durationMs(arrived),
				Tenant:     rec.Tenant,
				TraceID:    rec.TraceID,
				Error:      frame.Point.Error,
			})
		}
	}
	if err := sc.Err(); err != nil && rec.Error == "" {
		rec.Error = err.Error()
	}
	return points
}

// WriteNDJSON writes one JSON object per record, in input order.
func WriteNDJSON(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("load: record %d: %w", records[i].Seq, err)
		}
	}
	return bw.Flush()
}

// durationMs renders a duration as float milliseconds.
func durationMs(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
