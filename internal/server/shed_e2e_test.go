// The load shedder's structural guarantee, end to end: with the server's
// only worker held, cold (cache-miss) executions are shed with 503 while
// reads the root probe answers keep serving 200s — cached point reads
// survive the overload the shedder exists for. Lives in package server to
// pin the worker deterministically through the admission object itself.
package server

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
	"polystorepp/internal/tenant"
)

func TestShedColdServesCached(t *testing.T) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 60)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db-clinical", relational.NewEngine(data.Relational)))
	s := New(rt, compiler.Options{Level: 3}, Config{
		Workers:          1,
		QueueDepth:       -1, // no queue: capacity == 1 worker
		ShedHighWater:    0.5,
		DefaultSQLEngine: "db-clinical",
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
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

	warm := `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 3"}`
	if resp, raw := post(warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("prewarm status %d: %s", resp.StatusCode, raw)
	}

	// Pin the only worker: utilization is now 1.0, past the shed mark for
	// any high water below 1.
	if err := s.adm.acquire(context.Background(), tenant.Anon); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release(0)

	cold := `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 4"}`
	resp, raw := post(cold)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold query under load: status %d, want 503: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "cold work shed") {
		t.Fatalf("cold 503 body = %s", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}

	// The identical overload cannot touch the cached read: it never needs
	// the worker the load is holding.
	before := statValue(t, s, "subplan_plans_reused")
	resp, raw = post(warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached query under load: status %d, want 200: %s", resp.StatusCode, raw)
	}
	if statValue(t, s, "subplan_plans_reused") != before+1 {
		t.Fatalf("cached query was not answered by the root probe: %s", raw)
	}
}
