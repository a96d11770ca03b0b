package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// postAs round-trips one predict request under a tenant header.
func postAs(t testing.TB, h http.Handler, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(api.HeaderTenant, tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestAdmitterSemantics is the white-box contract of the two-level token
// bucket: per-tenant caps bind before the global one, releases restore
// both levels, and the tenant map stays bounded (entries vanish at zero).
func TestAdmitterSemantics(t *testing.T) {
	a := newAdmitter(3, 2)
	if a.Cap() != 3 || a.TenantCap() != 2 {
		t.Fatalf("caps = %d/%d, want 3/2", a.Cap(), a.TenantCap())
	}

	mustAcquire := func(tenant string) {
		t.Helper()
		if ok, scope := a.Acquire(tenant); !ok {
			t.Fatalf("Acquire(%q) refused with scope %q", tenant, scope)
		}
	}
	mustAcquire("a")
	mustAcquire("a")
	if ok, scope := a.Acquire("a"); ok || scope != api.ScopeTenant {
		t.Fatalf("third a-token: ok=%v scope=%q, want tenant-scope refusal", ok, scope)
	}
	// The tenant refusal must not have consumed global capacity.
	mustAcquire("b")
	if ok, scope := a.Acquire("b"); ok || scope != api.ScopeGlobal {
		t.Fatalf("fourth token: ok=%v scope=%q, want global-scope refusal", ok, scope)
	}
	if a.Depth() != 3 || heldBy(a, "a") != 2 || heldBy(a, "b") != 1 || a.Tenants() != 2 {
		t.Fatalf("depth=%d a=%d b=%d tenants=%d", a.Depth(), heldBy(a, "a"), heldBy(a, "b"), a.Tenants())
	}

	a.Release("a")
	mustAcquire("b") // freed global token is available to any tenant
	a.Release("a")
	a.Release("b")
	a.Release("b")
	if a.Depth() != 0 || a.Tenants() != 0 {
		t.Fatalf("after draining: depth=%d tenants=%d, want 0/0", a.Depth(), a.Tenants())
	}

	// perTenant clamps into [1, global].
	if a := newAdmitter(4, 99); a.TenantCap() != 4 {
		t.Errorf("oversized per-tenant cap = %d, want clamped to 4", a.TenantCap())
	}
	if a := newAdmitter(4, -1); a.TenantCap() != 1 {
		t.Errorf("negative per-tenant cap = %d, want clamped to 1", a.TenantCap())
	}
}

// TestTenantFairness is the ISSUE's fairness proof: with a global queue of
// 4 and a per-tenant cap of 2, a tenant flooding 8 concurrent simulations
// holds exactly its bucket's share while a second tenant still gets both
// of its requests admitted; overflow is shed with the correct scope header.
func TestTenantFairness(t *testing.T) {
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	r.Jobs = 8
	gate := make(chan struct{})
	r.FaultFn = func(p experiments.FaultPoint, _ experiments.RunKey) error {
		if p != experiments.FaultBeforeSim {
			return nil
		}
		<-gate // hold the admission token until the test releases it
		return fmt.Errorf("fairness gate: %w", context.Canceled)
	}
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9
	s := New(Config{Predictor: p, MaxQueue: 4, MaxPerTenant: 2, Metrics: telemetry.NewRegistry()})
	h := s.Handler()

	type result struct {
		tenant string
		code   int
		scope  string
	}
	results := make(chan result, 16)
	fire := func(tenant, body string) {
		go func() {
			w := postAs(t, h, tenant, body)
			results <- result{tenant, w.Code, w.Header().Get(api.HeaderAdmissionScope)}
		}()
	}

	// Tenant A floods: 8 cold simulations with distinct core counts (so no
	// two coalesce in the runner). Only 2 may hold tokens at once.
	for cores := 1; cores <= 8; cores++ {
		fire("team-a", fmt.Sprintf(`{"machine":"IntelUMA8","program":"EP","class":"W","cores":%d}`, cores))
	}
	waitFor(t, "tenant A at its cap", func() bool { return heldBy(s.adm, "team-a") == 2 })

	// Six of A's requests must already have been shed at tenant scope.
	sheddedA := 0
	for i := 0; i < 6; i++ {
		res := <-results
		if res.code != http.StatusTooManyRequests {
			t.Fatalf("flood response %d: status %d, want 429", i, res.code)
		}
		if res.scope != api.ScopeTenant {
			t.Errorf("flood response %d: scope %q, want %q", i, res.scope, api.ScopeTenant)
		}
		sheddedA++
	}

	// Tenant B's fair share is still free: both of its requests admit.
	fire("team-b", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":1}`)
	fire("team-b", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":2}`)
	waitFor(t, "tenant B admitted both", func() bool { return heldBy(s.adm, "team-b") == 2 })
	if depth := s.adm.Depth(); depth != 4 {
		t.Fatalf("queue depth = %d, want 4 (2 per tenant)", depth)
	}

	// Now both scopes are exhausted, and the refusal names the right one:
	// B hits its own bucket, a third tenant hits the global queue.
	if w := postAs(t, h, "team-b", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}`); w.Code != http.StatusTooManyRequests || w.Header().Get(api.HeaderAdmissionScope) != api.ScopeTenant {
		t.Errorf("B overflow: status %d scope %q, want 429/%s", w.Code, w.Header().Get(api.HeaderAdmissionScope), api.ScopeTenant)
	}
	if w := postAs(t, h, "team-c", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":4}`); w.Code != http.StatusTooManyRequests || w.Header().Get(api.HeaderAdmissionScope) != api.ScopeGlobal {
		t.Errorf("C arrival: status %d scope %q, want 429/%s", w.Code, w.Header().Get(api.HeaderAdmissionScope), api.ScopeGlobal)
	}

	// Release the gate: the four admitted requests resolve as 499s (their
	// injected fault is a cancellation) and return every token.
	close(gate)
	for i := 0; i < 4; i++ {
		res := <-results
		if res.code != StatusClientClosedRequest {
			t.Errorf("admitted request (%s): status %d, want %d", res.tenant, res.code, StatusClientClosedRequest)
		}
	}
	if sheddedA != 6 {
		t.Errorf("tenant A shed %d, want 6", sheddedA)
	}
	if s.adm.Depth() != 0 || s.adm.Tenants() != 0 {
		t.Errorf("after drain: depth=%d tenants=%d, want 0/0", s.adm.Depth(), s.adm.Tenants())
	}
}

// TestRetryAfterSemantics pins the 429 hint contract: the header is an
// integer number of seconds inside [minRetryAfterS, maxRetryAfterS],
// tracking the simulation-latency EWMA.
func TestRetryAfterSemantics(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 1)
	ok, _ := s.adm.Acquire("hog")
	if !ok {
		t.Fatal("could not occupy the admission token")
	}
	defer s.adm.Release("hog")
	h := s.Handler()

	shed := func() int {
		t.Helper()
		w := postAs(t, h, "", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":2}`)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
		}
		ra := w.Header().Get("Retry-After")
		v, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
		}
		if v < minRetryAfterS || v > maxRetryAfterS {
			t.Fatalf("Retry-After %d outside [%d, %d]", v, minRetryAfterS, maxRetryAfterS)
		}
		return v
	}

	// Cold server: the seed estimate is 1s.
	if got := shed(); got != 1 {
		t.Errorf("cold Retry-After = %d, want 1", got)
	}
	// Fast simulations must never drive the hint below the floor...
	for i := 0; i < 50; i++ {
		s.observeSimLatency(time.Millisecond)
	}
	if got := shed(); got != minRetryAfterS {
		t.Errorf("fast-sim Retry-After = %d, want floor %d", got, minRetryAfterS)
	}
	// ...slow ones track the EWMA upward...
	for i := 0; i < 50; i++ {
		s.observeSimLatency(5 * time.Second)
	}
	if got := shed(); got != 5 {
		t.Errorf("slow-sim Retry-After = %d, want 5", got)
	}
	// ...and pathological ones are capped at the ceiling.
	for i := 0; i < 50; i++ {
		s.observeSimLatency(time.Hour)
	}
	if got := shed(); got != maxRetryAfterS {
		t.Errorf("pathological Retry-After = %d, want cap %d", got, maxRetryAfterS)
	}
}

// TestAdmissionNoLeakAfterCancel hammers an overloaded server with
// already-canceled clients and checks every admission token comes back:
// a 499 must release exactly like a 200 would. The runner injects a
// cancellation at the sim boundary so no request can outrun its own
// cancellation and sneak out a 200 (tiny scaled sims can finish between
// context checks). Run under -race -count=5 this is the admission path's
// leak-and-race certificate.
func TestAdmissionNoLeakAfterCancel(t *testing.T) {
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	r.FaultFn = func(p experiments.FaultPoint, _ experiments.RunKey) error {
		if p != experiments.FaultBeforeSim {
			return nil
		}
		return fmt.Errorf("client gone: %w", context.Canceled)
	}
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9
	s := New(Config{Predictor: p, MaxQueue: 2, Metrics: telemetry.NewRegistry()})
	h := s.Handler()

	const clients = 32
	var wg sync.WaitGroup
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // the client is gone before the request lands
			body := fmt.Sprintf(`{"machine":"IntelUMA8","program":"EP","class":"W","cores":%d}`, 1+i%8)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
			req.Header.Set(api.HeaderTenant, fmt.Sprintf("t%d", i%4))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			codes <- w.Code
		}(i)
	}
	wg.Wait()
	close(codes)

	for code := range codes {
		if code != StatusClientClosedRequest && code != http.StatusTooManyRequests {
			t.Errorf("status %d, want 499 or 429", code)
		}
	}
	if s.adm.Depth() != 0 {
		t.Errorf("leaked %d admission tokens after cancellations", s.adm.Depth())
	}
	if s.adm.Tenants() != 0 {
		t.Errorf("tenant map retains %d entries after drain", s.adm.Tenants())
	}

	// The server still serves: healthz agrees the queue is empty.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz api.HealthzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.QueueDepth != 0 {
		t.Errorf("healthz queue_depth = %d, want 0", hz.QueueDepth)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldBy reports how many tokens tenant currently holds.
func heldBy(a *admitter, tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse[tenant]
}
