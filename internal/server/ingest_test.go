package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
)

// barrierFunc is a stub core.DurabilityBarrier.
type barrierFunc func(ctx context.Context) error

func (f barrierFunc) Barrier(ctx context.Context) error { return f(ctx) }

func ingestServer(b core.DurabilityBarrier, cfg Config) *Server {
	rt := core.NewRuntime(hw.NewHostCPU(), core.WithDurabilityBarrier(b))
	rt.Register(adapter.NewKV("kv", kvstore.New("kv")))
	return New(rt, compiler.Options{}, cfg)
}

func postIngest(s *Server, ctx context.Context, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)).WithContext(ctx))
	return rec
}

// TestIngestErrorClassification: a write that cannot be made durable, or
// that ran out of time, is the server's condition — 503 with Retry-After /
// 504 / 499 through the classifier /query uses, never a 400 counted under
// bad_request (wal.werr is sticky: a failing disk fails every write). What
// stays 400 is validation.
func TestIngestErrorClassification(t *testing.T) {
	const put = `{"engine":"kv","key":"k","data":"v"}`
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	blocks := barrierFunc(func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() })
	cases := []struct {
		name       string
		barrier    core.DurabilityBarrier
		ctx        context.Context
		body       string
		status     int
		retryAfter bool
		counter    func(*Server) int64
	}{
		{name: "ok", barrier: barrierFunc(func(context.Context) error { return nil }), body: put,
			status: 200, counter: func(s *Server) int64 { return s.st.ingests.Value() }},
		{name: "disk failing", barrier: barrierFunc(func(context.Context) error { return errors.New("fsync: input/output error") }), body: put,
			status: 503, retryAfter: true, counter: func(s *Server) int64 { return s.st.execErrors.Value() }},
		{name: "fsync stuck", barrier: blocks, body: put,
			status: 504, counter: func(s *Server) int64 { return s.st.deadline.Value() }},
		{name: "client gone", barrier: blocks, ctx: canceled, body: put,
			status: 499},
		{name: "engine takes no writes", barrier: blocks, body: `{"engine":"ml","key":"k"}`,
			status: 400, counter: func(s *Server) int64 { return s.st.badRequest.Value() }},
		{name: "adapter validation", barrier: blocks, body: `{"engine":"kv","data":"no key"}`,
			status: 400, counter: func(s *Server) int64 { return s.st.badRequest.Value() }},
		{name: "unknown engine", barrier: blocks, body: `{"engine":"nope","key":"k"}`,
			status: 400, counter: func(s *Server) int64 { return s.st.badRequest.Value() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ingestServer(tc.barrier, Config{DefaultTimeout: 50 * time.Millisecond})
			s.rt.Register(adapter.NewML("ml", 1))
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- postIngest(s, ctx, tc.body) }()
			var rec *httptest.ResponseRecorder
			select {
			case rec = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("handler still pinned 10s after a 50ms deadline")
			}
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if ra := rec.Header().Get("Retry-After"); (ra != "") != tc.retryAfter || ra == "0" {
				t.Fatalf("Retry-After = %q, want set=%v", ra, tc.retryAfter)
			}
			if tc.counter != nil && tc.counter(s) != 1 {
				t.Fatalf("the outcome's counter reads %d, want 1", tc.counter(s))
			}
			if tc.status != 400 && s.st.badRequest.Value() != 0 {
				t.Fatalf("bad_request = %d for a %d", s.st.badRequest.Value(), tc.status)
			}
			if tc.status != 200 && s.st.ingests.Value() != 0 {
				t.Fatal("a refused write was counted as ingested")
			}
		})
	}
}

// TestRequestTimeoutClamp: timeout_ms is capped in the millisecond domain —
// values whose Duration conversion wraps negative used to skip the cap and
// yield an instant 504.
func TestRequestTimeoutClamp(t *testing.T) {
	s := &Server{cfg: Config{DefaultTimeout: 10 * time.Second}, maxTimeout: maxTimeout}
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 10 * time.Second},
		{-1, 10 * time.Second},
		{math.MinInt64, 10 * time.Second},
		{1, time.Millisecond},
		{59_999, 59_999 * time.Millisecond},
		{60_000, 60 * time.Second},
		{60_001, 60 * time.Second},
		{math.MaxInt64 / int64(time.Millisecond), 60 * time.Second},
		{math.MaxInt64/int64(time.Millisecond) + 1, 60 * time.Second}, // first value that wraps
		{math.MaxInt64, 60 * time.Second},
	} {
		if got := s.requestTimeout(tc.ms); got != tc.want {
			t.Errorf("timeout_ms %d: %s, want %s", tc.ms, got, tc.want)
		}
	}
	if got := (&Server{cfg: Config{DefaultTimeout: time.Minute}, maxTimeout: time.Second}).requestTimeout(0); got != time.Second {
		t.Errorf("default above the cap: %s, want the cap", got)
	}

	// End to end: the largest timeout_ms is served under the cap.
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewKV("kv", kvstore.New("kv")))
	s = New(rt, compiler.Options{}, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(
		`{"frontend":"program","timeout_ms":9223372036854775807,"program":[{"id":"a","op":"kvscan","engine":"kv","prefix":"k"}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("timeout_ms=MaxInt64: status %d, want 200: %s", rec.Code, rec.Body)
	}
}
