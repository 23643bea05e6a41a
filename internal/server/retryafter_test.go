package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
)

// TestCeilSecondFloorsAtOne pins the Retry-After rounding: the header unit
// is whole seconds, so zero, negative and sub-second backoffs must all
// round UP to 1 — truncating to 0 tells well-behaved clients to retry
// immediately, amplifying the very overload the 429/503 reports.
func TestCeilSecondFloorsAtOne(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, time.Second},
		{-time.Second, time.Second},
		{time.Millisecond, time.Second},
		{999 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{time.Second + time.Millisecond, 2 * time.Second},
		{3 * time.Second, 3 * time.Second},
	}
	for _, c := range cases {
		if got := ceilSecond(c.in); got != c.want {
			t.Errorf("ceilSecond(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRetryAfterHintFloorsAtOne pins the admission backoff estimate's floor:
// an empty queue or a sub-millisecond service EWMA must still advise >= 1s.
func TestRetryAfterHintFloorsAtOne(t *testing.T) {
	if got := retryAfterHint(0, 8, 0); got < time.Second {
		t.Fatalf("retryAfterHint(0, 8, 0) = %v, want >= 1s", got)
	}
	if got := retryAfterHint(1, 8, time.Microsecond); got < time.Second {
		t.Fatalf("retryAfterHint tiny ewma = %v, want >= 1s", got)
	}
	if got := retryAfterHint(100, 0, time.Second); got < time.Second {
		t.Fatalf("retryAfterHint zero workers = %v, want >= 1s", got)
	}
}

// TestWriteQueryErrorRetryAfterNeverZero pins the header across every
// backpressure classification: 429 and 503 responses always carry
// Retry-After >= 1, even when the underlying error's backoff hint is zero —
// the guard used to skip the header entirely for a zero hint.
func TestWriteQueryErrorRetryAfterNeverZero(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	s := New(rt, compiler.Options{}, Config{})

	cases := []struct {
		name       string
		err        error
		wantStatus int
	}{
		{"rate-limit zero hint", &RejectError{Status: http.StatusTooManyRequests, RetryAfter: 0, msg: "over rate"}, http.StatusTooManyRequests},
		{"breaker subsecond hint", &RejectError{Status: http.StatusServiceUnavailable, RetryAfter: 50 * time.Millisecond, msg: "breaker open"}, http.StatusServiceUnavailable},
		{"queue overload", &OverloadError{Depth: 0}, http.StatusTooManyRequests},
		{"shed zero hint", &ShedError{Reason: "cold", RetryAfter: 0}, http.StatusServiceUnavailable},
		{"leaders gone", errLeadersGone, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeQueryError(rec, c.err, time.Second)
			if rec.Code != c.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, c.wantStatus)
			}
			ra := rec.Header().Get("Retry-After")
			if ra == "" {
				t.Fatalf("%d response missing Retry-After", rec.Code)
			}
			secs, err := time.ParseDuration(ra + "s")
			if err != nil || secs < time.Second {
				t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
			}
		})
	}

	// Non-backpressure statuses stay header-free: a 400 must not advise
	// retrying an unfixable request.
	rec := httptest.NewRecorder()
	s.writeQueryError(rec, compiler.ErrCompile, time.Second)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("compile error status = %d, want 400", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("400 response carries Retry-After %q", ra)
	}
}

// TestIngestRateLimitRetryAfter: /ingest charges the tenant's bucket through
// the same rate gate as /query and answers through writeQueryError, so an
// exhausted bucket refuses a write exactly as it refuses a query — same
// body, same Retry-After (>= 1 even though the bucket's suggested wait is
// sub-second, the truncation hazard), same counter deltas.
func TestIngestRateLimitRetryAfter(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	// Rate 2 req/s, burst 1: for half a second after the first request every
	// other one is refused, with a suggested wait under 500ms.
	s := New(rt, compiler.Options{}, Config{TenantRate: 2, TenantBurst: 1})
	post := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"engine":"nope"}`)))
		return rec
	}
	post("/ingest") // spends the only token (and fails validation: 400)

	refused := map[string]*httptest.ResponseRecorder{}
	deltas := map[string][2]int64{}
	for _, path := range []string{"/query", "/ingest"} {
		rate, rejected := s.st.tenantRate.Value(), s.st.rejected.Value()
		refused[path] = post(path)
		deltas[path] = [2]int64{s.st.tenantRate.Value() - rate, s.st.rejected.Value() - rejected}
	}
	q, ing := refused["/query"], refused["/ingest"]
	if ing.Code != http.StatusTooManyRequests || q.Code != ing.Code {
		t.Fatalf("status: /query %d, /ingest %d, want 429 on both", q.Code, ing.Code)
	}
	if ra := ing.Header().Get("Retry-After"); ra == "" || ra == "0" || ra != q.Header().Get("Retry-After") {
		t.Fatalf("Retry-After: /query %q, /ingest %q, want equal and >= 1", q.Header().Get("Retry-After"), ra)
	}
	if q.Body.String() != ing.Body.String() || !strings.Contains(ing.Body.String(), "over its request rate") {
		t.Fatalf("body: /query %s, /ingest %s", q.Body, ing.Body)
	}
	if deltas["/ingest"] != [2]int64{1, 1} || deltas["/query"] != deltas["/ingest"] {
		t.Fatalf("(tenant_ratelimited, rejected) deltas: /query %v, /ingest %v, want 1,1 on both", deltas["/query"], deltas["/ingest"])
	}
}

// TestDrainRetryAfter pins the drain emission site: 503s during graceful
// shutdown advise a retry (against the replacement instance).
func TestDrainRetryAfter(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	s := New(rt, compiler.Options{}, Config{})
	s.StartDrain()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("drain 503 Retry-After = %q, want >= 1", ra)
	}
}
