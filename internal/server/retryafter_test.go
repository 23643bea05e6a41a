package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
	"polystorepp/internal/tenant"
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

// TestRetryAfterHintFloorsAtOne pins the queue-full backoff estimate's floor:
// an empty queue or a sub-millisecond service EWMA must still advise >= 1s
// once the hint reaches the header.
func TestRetryAfterHintFloorsAtOne(t *testing.T) {
	for _, svc := range []time.Duration{0, time.Microsecond} {
		a := newAdmission(1, 0, noShed)
		a.svc = svc
		if err := a.acquire(context.Background(), anonFlow); err != nil {
			t.Fatal(err)
		}
		var ref *refusal
		if err := a.acquire(context.Background(), anonFlow); !errors.As(err, &ref) {
			t.Fatalf("acquire on a full controller = %v, want a refusal", err)
		}
		if got := ceilSecond(ref.retryAfter); got < time.Second {
			t.Fatalf("service EWMA %v: Retry-After = %v (hint %v), want >= 1s", svc, got, ref.retryAfter)
		}
	}
}

// refusalFamilies are the /metrics families a refusal can move.
var refusalFamilies = []string{
	"server_tenant_rate", "server_tenant_breaker", "server_shed_cold",
	"server_shed_deadline", "server_rejected", "server_exec_errors", "server_drain_rejected",
}

// TestWriteQueryErrorRetryAfterNeverZero runs every refusal cause, with a
// zero or sub-second backoff hint, out of writeQueryError (what /query,
// /ingest and /query/stream answer a refusal with). 429 and 503
// responses always carry Retry-After >= 1 — the guard used to skip the
// header entirely for a zero hint; each cause moves exactly its global
// counters and its tenant's, by one per refused request; and a refusal is
// neutral to the tenant's breaker.
func TestWriteQueryErrorRetryAfterNeverZero(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	s := New(rt, compiler.Options{}, Config{})

	cases := []struct {
		name       string
		err        *refusal
		global     []string                         // families that move, by one
		tenant     func(*tenantState) *atomic.Int64 // nil: no per-tenant counter
		wantStatus int
	}{
		{"rate-limit zero hint", &refusal{status: 429, cause: causeRate, msg: "over rate"},
			[]string{"server_tenant_rate", "server_rejected"}, func(ts *tenantState) *atomic.Int64 { return &ts.ratelimited }, http.StatusTooManyRequests},
		{"breaker subsecond hint", &refusal{status: 503, cause: causeBreaker, msg: "breaker open", retryAfter: 50 * time.Millisecond},
			[]string{"server_tenant_breaker"}, func(ts *tenantState) *atomic.Int64 { return &ts.breakerRejects }, http.StatusServiceUnavailable},
		{"queue overload", &refusal{status: 429, cause: causeQueueFull, msg: "queue full"},
			[]string{"server_rejected"}, nil, http.StatusTooManyRequests},
		{"shed zero hint", &refusal{status: 503, cause: causeShedCold, msg: "cold work shed"},
			[]string{"server_shed_cold", "server_rejected"}, func(ts *tenantState) *atomic.Int64 { return &ts.shed }, http.StatusServiceUnavailable},
		{"shed deadline subsecond hint", &refusal{status: 503, cause: causeShedDeadline, msg: "deadline work shed", retryAfter: time.Millisecond},
			[]string{"server_shed_deadline", "server_rejected"}, func(ts *tenantState) *atomic.Int64 { return &ts.shed }, http.StatusServiceUnavailable},
		{"leaders gone", leadersGone(context.Canceled),
			[]string{"server_exec_errors"}, nil, http.StatusServiceUnavailable},
		{"draining", &refusal{status: 503, cause: causeDraining, msg: "draining"},
			[]string{"server_drain_rejected"}, nil, http.StatusServiceUnavailable},
	}
	scrape(t, s) // the scraper's own tenant record exists from here on
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if outcomeOf(c.err) != neutral {
				t.Fatalf("outcomeOf = %v, want neutral: a refusal must not feed the breaker", outcomeOf(c.err))
			}
			// refuse sends c.err out of one door and checks what moved.
			refuse := func(door string, send func(ts *tenantState)) {
				t.Helper()
				ts := s.tenants.state("refused")
				before, _ := scrape(t, s)
				var tenantBefore int64
				if c.tenant != nil {
					tenantBefore = c.tenant(ts).Load()
				}
				send(ts)
				after, _ := scrape(t, s)
				want := map[string]float64{}
				for _, f := range c.global {
					want[f] = 1
				}
				for _, f := range refusalFamilies {
					if got := after[f] - before[f]; got != want[f] {
						t.Errorf("%s: %s moved by %v, want %v", door, f, got, want[f])
					}
				}
				if c.tenant != nil && c.tenant(ts).Load() != tenantBefore+1 {
					t.Errorf("%s: per-tenant counter moved by %d, want 1", door, c.tenant(ts).Load()-tenantBefore)
				}
				if ts.served.Load() != 0 || ts.failures.Load() != 0 {
					t.Errorf("%s: the refusal fed the tenant's breaker window", door)
				}
			}

			refuse("writeQueryError", func(ts *tenantState) {
				rec := httptest.NewRecorder()
				s.writeQueryError(rec, ts, c.err, time.Second)
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
		})
	}

	// Non-backpressure statuses stay header-free: a 400 must not advise
	// retrying an unfixable request.
	rec := httptest.NewRecorder()
	s.writeQueryError(rec, nil, compiler.ErrCompile, time.Second)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("compile error status = %d, want 400", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("400 response carries Retry-After %q", ra)
	}
}

// halfOpenServer boots a one-worker, no-queue server over a small table and
// leaves tenant "t" with a breaker that tripped more than its 5 s cooldown
// ago: the next three queries it admits are its half-open probes.
func halfOpenServer(t *testing.T, highWater float64) (*Server, *tenantState) {
	t.Helper()
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(wireStore(t))))
	s := New(rt, compiler.Options{}, Config{
		Workers: 1, QueueDepth: -1, ShedHighWater: highWater, DefaultSQLEngine: "db",
	})
	ts := s.tenants.state("t")
	tripBreaker(t, ts, time.Now().Add(-6*time.Second))
	return s, ts
}

// tripBreaker opens ts's breaker at time at, with the 20 failures it takes
// to trip.
func tripBreaker(t *testing.T, ts *tenantState, at time.Time) {
	t.Helper()
	for i := 0; i < 20; i++ {
		ts.breaker.Record(at, false)
	}
	if ts.breaker.State() != tenant.Open {
		t.Fatalf("breaker = %v after 20 failures, want open", ts.breaker.State())
	}
}

// TestHalfOpenProbeAlwaysReturned: whatever way a half-open probe leaves —
// a 400 before it was ever prepared, a shed, a full queue, a run of dying
// single-flight leaders — its slot goes back to the breaker. Three such
// requests used to use the three slots up for good, after which the tenant's
// healthy queries answered "503 circuit breaker open" forever.
func TestHalfOpenProbeAlwaysReturned(t *testing.T) {
	const healthy = `{"frontend":"sql","statement":"SELECT a FROM t WHERE a > 3"}`
	pinWorker := func(t *testing.T, s *Server) (undo func()) {
		if err := s.adm.acquire(context.Background(), anonFlow); err != nil {
			t.Fatal(err)
		}
		return func() { s.adm.release(0) }
	}
	cases := []struct {
		name      string
		body      string
		highWater float64
		// arrange puts the server into the condition that turns the body
		// away; undo lifts it.
		arrange    func(t *testing.T, s *Server, ts *tenantState) (undo func())
		wantStatus int
		wantBody   string
	}{
		{name: "bad body", body: `{`, wantStatus: 400, wantBody: "bad request body"},
		{name: "unknown engine", body: `{"frontend":"sql","engine":"nope","statement":"SELECT a FROM t"}`, wantStatus: 400, wantBody: "unknown engine"},
		{name: "shed", body: healthy, highWater: 0.5, wantStatus: 503, wantBody: "work shed",
			arrange: func(t *testing.T, s *Server, _ *tenantState) func() { return pinWorker(t, s) }},
		{name: "queue full", body: healthy, highWater: -1, wantStatus: 429, wantBody: "queue full (0 queued)",
			arrange: func(t *testing.T, s *Server, _ *tenantState) func() { return pinWorker(t, s) }},
		{name: "leaders gone", body: healthy, wantStatus: 503, wantBody: "repeatedly canceled by its leaders",
			arrange: func(t *testing.T, s *Server, ts *tenantState) func() {
				// Every attempt to share the healthy query's execution finds
				// a leader that has already died of its client going away.
				req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(healthy))
				p := new(preparedQuery)
				if !s.prepareQuery(httptest.NewRecorder(), req, ts, p) {
					t.Fatal("the healthy query does not prepare")
				}
				key := flightKey(p.planKey, p.binds, p.vv)
				dead := &flightCall{done: make(chan struct{}), err: context.Canceled}
				close(dead.done)
				s.flight.mu.Lock()
				s.flight.calls[key] = dead
				s.flight.mu.Unlock()
				return func() {
					s.flight.mu.Lock()
					delete(s.flight.calls, key)
					s.flight.mu.Unlock()
				}
			}},
	}
	for _, c := range cases {
		for _, path := range []string{"/query", "/query/stream"} {
			t.Run(c.name+path, func(t *testing.T) {
				s, ts := halfOpenServer(t, c.highWater)
				undo := func() {}
				if c.arrange != nil {
					undo = c.arrange(t, s, ts)
				}
				for i := 0; i < 3; i++ {
					rec := wireDo(t, s, http.MethodPost, path, "t", c.body)
					if rec.Code != c.wantStatus || !strings.Contains(rec.Body.String(), c.wantBody) {
						t.Fatalf("request %d: status %d %s, want %d %q", i, rec.Code, rec.Body, c.wantStatus, c.wantBody)
					}
					if backpressure := c.wantStatus != 400; backpressure != (rec.Header().Get("Retry-After") != "") {
						t.Fatalf("request %d: status %d with Retry-After %q", i, rec.Code, rec.Header().Get("Retry-After"))
					}
				}
				if got := ts.served.Load(); got != 0 {
					t.Fatalf("%d of the turned-away requests fed the breaker window", got)
				}
				undo()
				rec := wireDo(t, s, http.MethodPost, path, "t", healthy)
				if rec.Code != http.StatusOK {
					t.Fatalf("healthy query after three returned probes: status %d %s, want 200 (admitted as a probe)", rec.Code, rec.Body)
				}
				if ts.breaker.State() != tenant.HalfOpen || ts.served.Load() != 1 {
					t.Fatalf("breaker %v, served %d: want the healthy query recorded as the first successful probe", ts.breaker.State(), ts.served.Load())
				}
			})
		}
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
