// End-to-end tests of the multi-tenant resilience layer: per-tenant token
// buckets isolating an abusive tenant, circuit breakers opening on a
// tenant's failing workload without touching its neighbors, and graceful
// drain letting in-flight streams finish while new work bounces with 503.
package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
	"polystorepp/internal/tenant"
)

// postAs fires one POST with a tenant header and returns the response with
// its body read out.
func postAs(t *testing.T, url, body, ten string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set("X-Tenant", ten)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp, string(raw)
}

// TestTenantRateLimitIsolation: a tenant with a tight quota burns its burst
// and then collects honest 429s, while a tenant without a quota sails
// through untouched — and /stats reports both stories per tenant.
func TestTenantRateLimitIsolation(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{
		TenantQuotas: map[string]polystore.TenantQuota{
			// Refill is negligible within the test, so exactly burst (2)
			// requests are admitted.
			"abuser": {Rate: 0.001, Burst: 2},
		},
	})
	body := `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 3"}`

	var ok200, limited int
	for i := 0; i < 8; i++ {
		resp, raw := postAs(t, ts.URL+"/query", body, "abuser")
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			limited++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After: %s", raw)
			}
			if !strings.Contains(raw, "over its request rate") {
				t.Fatalf("429 body = %s", raw)
			}
		default:
			t.Fatalf("abuser request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if ok200 != 2 || limited != 6 {
		t.Fatalf("abuser saw %d admitted / %d limited, want 2 / 6", ok200, limited)
	}

	for i := 0; i < 8; i++ {
		resp, raw := postAs(t, ts.URL+"/query", body, "good")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("well-behaved tenant request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Tenants map[string]struct {
			Requests    int64 `json:"requests"`
			RateLimited int64 `json:"ratelimited"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Tenants["abuser"].RateLimited; got != 6 {
		t.Fatalf("stats: abuser ratelimited = %d, want 6", got)
	}
	if got := stats.Tenants["good"].RateLimited; got != 0 {
		t.Fatalf("stats: good ratelimited = %d, want 0", got)
	}
	if got := stats.Tenants["good"].Requests; got != 8 {
		t.Fatalf("stats: good requests = %d, want 8", got)
	}
}

// TestTenantRecordsBounded: an identity flood cannot grow per-tenant state
// past tenant.DefaultMaxTenants. The least-recently-seen tenant is evicted,
// and comes back with a fresh record (one fresh burst, never unbounded
// memory).
func TestTenantRecordsBounded(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 1"}`
	requests := func() map[string]int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Tenants map[string]struct {
				Requests int64 `json:"requests"`
			} `json:"tenants"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for id, row := range stats.Tenants {
			out[id] = row.Requests
		}
		return out
	}
	// "a", "b" and 1022 fillers take every record; "a" is seen again, so
	// "b" is the least recently seen when "c", the 1025th id, arrives.
	ids := []string{"a", "b"}
	for i := 2; i < tenant.DefaultMaxTenants; i++ {
		ids = append(ids, fmt.Sprintf("f%d", i))
	}
	for _, ten := range append(ids, "a", "c") {
		if resp, raw := postAs(t, ts.URL+"/query", body, ten); resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: status %d: %s", ten, resp.StatusCode, raw)
		}
	}
	got := requests()
	if _, ok := got["b"]; len(got) != tenant.DefaultMaxTenants || ok || got["a"] != 2 || got["c"] != 1 {
		t.Fatalf("%d tenant records, a:%d b:%d c:%d; want %d, a:2 c:1 and b evicted",
			len(got), got["a"], got["b"], got["c"], tenant.DefaultMaxTenants)
	}
	postAs(t, ts.URL+"/query", body, "b")
	if got := requests(); len(got) != tenant.DefaultMaxTenants || got["b"] != 1 {
		t.Fatalf("%d tenant records, b:%d; want b back with a fresh count of 1", len(got), got["b"])
	}
}

// TestTenantBreakerOpensAndIsolates: a tenant whose workload keeps failing
// at execution time trips its own circuit breaker — subsequent requests get
// an immediate 503 instead of burning a worker — while another tenant's
// identical (failing) and healthy traffic is untouched.
func TestTenantBreakerOpensAndIsolates(t *testing.T) {
	// newStreamTestServer seeds the "points" table whose row 5000 has x = 0:
	// the projection below is a deterministic execution-time failure.
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	failing := `{"frontend":"sql","statement":"SELECT k, 10 / x AS y FROM points"}`
	healthy := `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 3"}`

	// The breaker trips the moment its window holds 20 outcomes, half of
	// them failures, so exactly 20 failing requests execute (500); for the
	// next 5 s everything is refused.
	for i := 0; i < 20; i++ {
		resp, raw := postAs(t, ts.URL+"/query", failing, "flaky")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing request %d: status %d, want 500: %s", i, resp.StatusCode, raw)
		}
	}

	resp, raw := postAs(t, ts.URL+"/query", healthy, "flaky")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-trip request: status %d, want 503: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "circuit breaker open") {
		t.Fatalf("post-trip body = %s", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker 503 without Retry-After")
	}

	// The neighbor is a different breaker: its first failing request still
	// executes (500, not 503), and its healthy traffic serves normally.
	resp, raw = postAs(t, ts.URL+"/query", failing, "steady")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("steady failing request: status %d, want 500: %s", resp.StatusCode, raw)
	}
	resp, raw = postAs(t, ts.URL+"/query", healthy, "steady")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steady healthy request: status %d: %s", resp.StatusCode, raw)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(prom), `breaker_state{tenant="flaky"} 1`) {
		t.Fatalf("/metrics missing open breaker gauge for flaky:\n%s", prom)
	}
	if !strings.Contains(string(prom), `breaker_state{tenant="steady"} 0`) {
		t.Fatalf("/metrics missing closed breaker gauge for steady:\n%s", prom)
	}
}

// TestDrainAllowsInflightStreams is the graceful-shutdown contract: a stream
// started before the drain keeps delivering until its summary record, while
// new work-bearing requests bounce with 503 + Retry-After and observability
// endpoints stay up. Drain itself returns once the stream finishes.
func TestDrainAllowsInflightStreams(t *testing.T) {
	store := relational.NewStore("db-drain")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	batch := cast.NewBatch(events.Schema(), 10000)
	for i := 0; i < 10000; i++ {
		if err := batch.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	sys := polystore.New(polystore.WithRelational("db-drain", store))
	h := sys.Handler(polystore.ServeConfig{
		DefaultSQLEngine: "db-drain",
		MaxRows:          20000,
	})
	srv, ok := h.(*server.Server)
	if !ok {
		t.Fatalf("Handler returned %T, want *server.Server", h)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query/stream", "application/json",
		strings.NewReader(`{"frontend":"sql","statement":"SELECT * FROM events"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil || !strings.Contains(first, `"type":"schema"`) {
		t.Fatalf("first stream line = %q, err %v", first, err)
	}

	// The stream is in flight; start draining mid-delivery.
	srv.StartDrain()

	qresp, qraw := postAs(t, ts.URL+"/query",
		`{"frontend":"sql","statement":"SELECT id FROM events LIMIT 1"}`, "")
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503: %s", qresp.StatusCode, qraw)
	}
	if qresp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	_ = hresp.Body.Close()
	if !strings.Contains(string(hraw), "draining") {
		t.Fatalf("healthz during drain = %s", hraw)
	}

	// The pre-drain stream still completes, terminal summary included.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), `"type":"summary"`) {
		t.Fatalf("drained stream missing summary record (last 200 bytes: %q)",
			string(rest[max(0, len(rest)-200):]))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
