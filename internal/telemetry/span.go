package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"time"
)

// Request-scoped span tracing layered on the nil-safe Tracer.
//
// A Span brackets one unit of work inside a request (admission wait, model
// predict, sim execute, ...). Spans form a tree: every span carries the
// 128-bit trace ID of its request plus its own 64-bit span ID, and records
// its parent's span ID so offline tools (cmd/traceview) can reconstruct the
// waterfall. Each span emits exactly one "span.end" NDJSON record when it
// ends — there is no separate start record, so a crashed request simply has
// a truncated tree rather than dangling opens.
//
// Timestamps are monotonic offsets (microseconds) from the owning Tracer's
// epoch, not wall-clock times: offsets from two different tracers (e.g. the
// loadgen client and the simserved server) are NOT comparable; only
// durations are. Tools that merge files must treat each file as its own
// timebase.
//
// The zero-cost-when-off contract extends to spans: StartSpan on a nil
// Tracer returns the zero Span, and End on the zero Span is a no-op.

// TraceID is a 128-bit request identifier, shared by every span of one
// request across processes (propagated via the W3C traceparent header).
type TraceID [16]byte

// SpanID is a 64-bit identifier for one span within a trace.
type SpanID [8]byte

// String returns the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is all zeros (invalid per W3C trace-context).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeros (invalid per W3C trace-context).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// SpanContext identifies one span within one trace. It is the unit of
// propagation: the parent half travels in the traceparent header and in
// context.Context values.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both halves are nonzero.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00 with the sampled flag set:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
func (sc SpanContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, sc.Trace[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.Span[:])
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version except ff, requires nonzero trace and span IDs, and ignores the
// trace flags. ok is false for anything malformed (including the empty
// string, so callers can pass r.Header.Get straight in).
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if s[0:2] == "ff" {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc, for propagating the
// current span across API layers (server handler → runner → checkpoints).
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context stored by ContextWithSpan.
// ok is false when none is present or it is invalid.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, sc.Valid()
}

// IDSource generates trace and span IDs. It is safe for concurrent use.
// The zero value is not usable; construct with NewIDSource or
// SeededIDSource.
type IDSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewIDSource returns an ID source seeded from the OS entropy pool.
func NewIDSource() *IDSource {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// The entropy pool is effectively infallible on supported
		// platforms; fall back to a fixed seed rather than panic in a
		// telemetry path.
		return SeededIDSource(1)
	}
	return SeededIDSource(int64(binary.LittleEndian.Uint64(b[:])))
}

// SeededIDSource returns an ID source producing a deterministic ID
// sequence for the given seed — the hook behind same-seed byte-identical
// span output in tests and golden artifacts.
func SeededIDSource(seed int64) *IDSource {
	return &IDSource{rng: rand.New(rand.NewSource(seed))}
}

// TraceID returns a new nonzero 128-bit trace ID.
func (s *IDSource) TraceID() TraceID {
	var id TraceID
	s.mu.Lock()
	binary.BigEndian.PutUint64(id[0:8], s.rng.Uint64())
	binary.BigEndian.PutUint64(id[8:16], s.rng.Uint64())
	s.mu.Unlock()
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// SpanID returns a new nonzero 64-bit span ID.
func (s *IDSource) SpanID() SpanID {
	var id SpanID
	s.mu.Lock()
	binary.BigEndian.PutUint64(id[:], s.rng.Uint64())
	s.mu.Unlock()
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — a cheap bijective
// mixer used to derive well-spread IDs from (seed, sequence) pairs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSpanContext deterministically derives a root span context from a
// (seed, sequence) pair. The load generator uses this so that the trace ID
// of request #n under seed s is reproducible across runs — rerunning a
// schedule regenerates the same IDs, and two runs are distinguished by
// their seeds. Distinct (seed, seq) pairs map to distinct contexts with
// overwhelming probability (SplitMix64 is bijective per stream).
func DeriveSpanContext(seed, seq int64) SpanContext {
	var sc SpanContext
	x := splitmix64(uint64(seed)) ^ splitmix64(uint64(seq)*0x9e3779b97f4a7c15+0x85ebca6b)
	binary.BigEndian.PutUint64(sc.Trace[0:8], splitmix64(x))
	binary.BigEndian.PutUint64(sc.Trace[8:16], splitmix64(x+1))
	binary.BigEndian.PutUint64(sc.Span[:], splitmix64(x+2))
	if sc.Trace.IsZero() {
		sc.Trace[15] = 1
	}
	if sc.Span.IsZero() {
		sc.Span[7] = 1
	}
	return sc
}

// Span is one timed, named segment of a trace. The zero Span is valid and
// inert (End is a no-op) — the off-path value returned by a nil Tracer.
type Span struct {
	t      *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Duration
}

// Context returns the span's own context, for starting children or
// propagating via ContextWithSpan / Traceparent.
func (s Span) Context() SpanContext { return s.sc }

// Active reports whether the span will emit a record on End.
func (s Span) Active() bool { return s.t != nil }

// StartSpan starts a span as a child of parent. An invalid (zero) parent
// starts a new root trace with a fresh trace ID; a parent with a valid
// trace but zero span ID joins that trace as a root span (the server does
// this when a client sent a traceparent header: the client's span becomes
// the parent). On a nil Tracer it returns the zero Span. name must be a
// literal dotted identifier in a registered namespace (tracelint enforces
// this at vet time).
func (t *Tracer) StartSpan(parent SpanContext, name string) Span {
	if t == nil {
		return Span{}
	}
	sc := SpanContext{Trace: parent.Trace, Span: t.ids.SpanID()}
	if sc.Trace.IsZero() {
		sc.Trace = t.ids.TraceID()
	}
	return Span{t: t, name: name, sc: sc, parent: parent.Span, start: t.now()}
}

// StartSpanAt starts a root span with exactly the given context instead of
// generating IDs — the load generator's hook for pre-derived deterministic
// IDs (DeriveSpanContext). On a nil Tracer it returns the zero Span.
func (t *Tracer) StartSpanAt(sc SpanContext, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, sc: sc, start: t.now()}
}

// End emits the span's single "span.end" record: name, trace/span/parent
// IDs, start/end microsecond offsets from the tracer epoch, plus any extra
// attributes (slog key-value convention). End on the zero Span is a no-op.
func (s Span) End(args ...any) {
	if s.t == nil {
		return
	}
	end := s.t.now()
	kv := make([]any, 0, 12+len(args))
	kv = append(kv,
		"name", s.name,
		"trace", s.sc.Trace.String(),
		"span", s.sc.Span.String(),
	)
	if !s.parent.IsZero() {
		kv = append(kv, "parent", s.parent.String())
	}
	kv = append(kv,
		"start_us", offsetUs(s.start),
		"end_us", offsetUs(end),
	)
	kv = append(kv, args...)
	s.t.log.Info("span.end", kv...)
}

// offsetUs renders a monotonic offset as fractional microseconds: span
// timings need sub-µs resolution (the analytical tier answers in ~0.2 µs)
// but µs-scale readability in the NDJSON.
func offsetUs(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
