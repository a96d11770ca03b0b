package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	src := SeededIDSource(7)
	sc := SpanContext{Trace: src.TraceID(), Span: src.SpanID()}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0eXXXX-00f067aa0ba902b7-01", // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
	good := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	if _, ok := ParseTraceparent(good); !ok {
		t.Errorf("ParseTraceparent(%q) rejected, want accept (future version, flags ignored)", good)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("empty context reported a span")
	}
	src := SeededIDSource(3)
	sc := SpanContext{Trace: src.TraceID(), Span: src.SpanID()}
	got, ok := SpanFromContext(ContextWithSpan(ctx, sc))
	if !ok || got != sc {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestDeriveSpanContextDeterministicAndDistinct(t *testing.T) {
	a := DeriveSpanContext(42, 0)
	if a != DeriveSpanContext(42, 0) {
		t.Fatal("same (seed, seq) gave different contexts")
	}
	if !a.Valid() {
		t.Fatal("derived context invalid")
	}
	seen := map[TraceID]bool{}
	for seq := int64(0); seq < 1000; seq++ {
		for _, seed := range []int64{1, 2, 42} {
			id := DeriveSpanContext(seed, seq).Trace
			if seen[id] {
				t.Fatalf("trace ID collision at seed=%d seq=%d", seed, seq)
			}
			seen[id] = true
		}
	}
}

// deterministicTracer pins both ID generation and the clock so span
// output is byte-comparable across runs.
func deterministicTracer(buf *bytes.Buffer, seed int64) *Tracer {
	tr := NewTracer(buf)
	tr.ids = SeededIDSource(seed)
	tick := time.Duration(0)
	tr.clock = func() time.Duration {
		tick += 10 * time.Microsecond
		return tick
	}
	return tr
}

func emitSampleSpans(seed int64) string {
	var buf bytes.Buffer
	tr := deterministicTracer(&buf, seed)
	root := tr.StartSpan(SpanContext{}, "server.request")
	parse := tr.StartSpan(root.Context(), "server.parse")
	parse.End("ok", true)
	sim := tr.StartSpan(root.Context(), "server.sim")
	sim.End()
	root.End("status", 200, "tier", "analytical")
	return buf.String()
}

func TestSpanOutputSameSeedDeterministic(t *testing.T) {
	a, b := emitSampleSpans(11), emitSampleSpans(11)
	if a != b {
		t.Fatalf("same-seed span output differs:\n%s\nvs\n%s", a, b)
	}
	if c := emitSampleSpans(12); c == a {
		t.Fatal("different seeds produced identical span IDs")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	out := emitSampleSpans(5)
	type rec struct {
		Event   string  `json:"event"`
		Name    string  `json:"name"`
		Trace   string  `json:"trace"`
		Span    string  `json:"span"`
		Parent  string  `json:"parent"`
		StartUs float64 `json:"start_us"`
		EndUs   float64 `json:"end_us"`
	}
	var recs []rec
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Children end before the root (emission order), all share one trace.
	byName := map[string]rec{}
	for _, r := range recs {
		if r.Event != "span.end" {
			t.Fatalf("event = %q, want span.end", r.Event)
		}
		byName[r.Name] = r
	}
	root, parse, sim := byName["server.request"], byName["server.parse"], byName["server.sim"]
	if root.Parent != "" {
		t.Fatalf("root has parent %q", root.Parent)
	}
	if len(root.Trace) != 32 || len(root.Span) != 16 {
		t.Fatalf("ID widths: trace %q span %q", root.Trace, root.Span)
	}
	for _, child := range []rec{parse, sim} {
		if child.Trace != root.Trace {
			t.Fatalf("child trace %q != root trace %q", child.Trace, root.Trace)
		}
		if child.Parent != root.Span {
			t.Fatalf("child parent %q != root span %q", child.Parent, root.Span)
		}
		if child.EndUs < child.StartUs {
			t.Fatalf("child ends (%v) before it starts (%v)", child.EndUs, child.StartUs)
		}
	}
	if !(root.StartUs < parse.StartUs && parse.EndUs <= root.EndUs) {
		t.Fatalf("child [%v,%v] not within root [%v,%v]",
			parse.StartUs, parse.EndUs, root.StartUs, root.EndUs)
	}
}

func TestSpanJoinsClientTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := deterministicTracer(&buf, 9)
	client := DeriveSpanContext(7, 3)
	root := tr.StartSpan(client, "server.request")
	if got := root.Context().Trace; got != client.Trace {
		t.Fatalf("server root trace %s, want client trace %s", got, client.Trace)
	}
	root.End()
	if !strings.Contains(buf.String(), `"parent":"`+client.Span.String()+`"`) {
		t.Fatalf("server root should record client span as parent:\n%s", buf.String())
	}
}

func TestNilTracerSpansNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(SpanContext{}, "server.request")
	if sp.Active() {
		t.Fatal("nil tracer returned an active span")
	}
	sp.End("k", 1) // must not panic
	tr.StartSpanAt(DeriveSpanContext(1, 1), "load.request").End()
}

func TestSpanZeroAllocWhenOff(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(SpanContext{}, "server.request")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer StartSpan/End allocates %.1f/op, want 0", allocs)
	}
}
