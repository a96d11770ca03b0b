package telemetry

import (
	"io"
	"log/slog"
	"time"
)

// Tracer emits structured run events as NDJSON (one JSON object per
// line) through a log/slog JSON handler. Events carry an "event" name
// plus caller-supplied attributes; the built-in wall-clock timestamp is
// suppressed so that identical simulations produce byte-identical traces
// (wall-clock durations, when wanted, are passed as explicit attributes
// by callers that accept nondeterministic output, e.g. runner spans).
//
// A nil *Tracer is valid and ignores every call — the zero-cost-when-off
// contract: integration points do a single nil check and emit nothing.
// A non-nil Tracer serializes concurrent emitters through the handler's
// own locking (slog handlers lock around each record write).
type Tracer struct {
	log *slog.Logger

	// Span support (span.go). epoch anchors the tracer's monotonic
	// timebase; clock returns the offset from it (replaceable in tests
	// for byte-deterministic span records); ids generates span/trace IDs.
	epoch time.Time
	clock func() time.Duration
	ids   *IDSource
}

// NewTracer returns a tracer writing NDJSON events to w. Wall-clock
// timestamps are stripped from every record and the message key is
// renamed to "event".
func NewTracer(w io.Writer) *Tracer {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) != 0 {
				return a
			}
			switch a.Key {
			case slog.TimeKey, slog.LevelKey:
				// Drop wall-clock time and level: trace events are named by
				// "event" and ordered by file position, and determinism is
				// part of the artifact contract.
				return slog.Attr{}
			case slog.MessageKey:
				a.Key = "event"
			}
			return a
		},
	})
	t := &Tracer{log: slog.New(h), epoch: time.Now(), ids: NewIDSource()}
	t.clock = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// now returns the monotonic offset from the tracer epoch.
func (t *Tracer) now() time.Duration { return t.clock() }

// Enabled reports whether events will be recorded (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event with the given attributes. args follow slog
// conventions (alternating key, value). A nil tracer ignores the call.
func (t *Tracer) Emit(event string, args ...any) {
	if t == nil {
		return
	}
	t.log.Info(event, args...)
}
