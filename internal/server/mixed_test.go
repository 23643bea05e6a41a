package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"polystorepp"
	"polystorepp/internal/server"
)

func postIngest(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestSurgicalInvalidationAcrossEngines is the acceptance criterion: under a
// mixed read/write workload, a write to engine A does not evict cached
// results whose plans touch only engine B — while a write to B still does.
func TestSurgicalInvalidationAcrossEngines(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	read := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10"}`

	if code, qr, raw := postQuery(t, ts, read); code != http.StatusOK || qr.ResultCache != "miss" {
		t.Fatalf("warmup: code=%d result_cache=%q: %s", code, qr.ResultCache, raw)
	}
	if _, qr, _ := postQuery(t, ts, read); qr.ResultCache != "hit" {
		t.Fatalf("repeat result_cache = %q, want hit", qr.ResultCache)
	}

	// Write to the timeseries engine: the relational plan never touches it,
	// so the cached result must survive.
	if code, raw := postIngest(t, ts, `{"engine":"ts-vitals","series":"mixed/hr","ts":1,"value":72}`); code != http.StatusOK {
		t.Fatalf("ts ingest: code=%d: %s", code, raw)
	}
	if _, qr, _ := postQuery(t, ts, read); qr.ResultCache != "hit" {
		t.Fatalf("after unrelated write, result_cache = %q, want hit (eviction was not surgical)", qr.ResultCache)
	}

	// Write to the touched table: the cached result must stop being served.
	if code, raw := postIngest(t, ts, `{"engine":"db-clinical","table":"patients","row":[424242, 95, 1, 0]}`); code != http.StatusOK {
		t.Fatalf("db ingest: code=%d: %s", code, raw)
	}
	code, qr, raw := postQuery(t, ts, read)
	if code != http.StatusOK || qr.ResultCache != "miss" {
		t.Fatalf("after touched write: code=%d result_cache=%q: %s", code, qr.ResultCache, raw)
	}
	found := false
	for _, row := range qr.Rows {
		if pid, ok := row[0].(float64); ok && pid == 424242 {
			found = true
		}
	}
	if !found {
		t.Fatal("ingested 95-year-old missing from post-write query (stale result served)")
	}
}

// TestMixedWorkloadCacheHitRate is the new benchmark's test-mode assertion:
// a 95/5-style loop of unrelated writes interleaved with one hot read keeps
// the read served from the result cache on every iteration after the first.
func TestMixedWorkloadCacheHitRate(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	read := `{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`
	if _, qr, _ := postQuery(t, ts, read); qr.ResultCache != "miss" {
		t.Fatalf("warmup result_cache = %q", qr.ResultCache)
	}
	const iters = 50
	hits := 0
	for i := 0; i < iters; i++ {
		body := fmt.Sprintf(`{"engine":"ts-vitals","series":"mixed/rate","ts":%d,"value":68}`, 1_000_000_000+int64(i))
		if code, raw := postIngest(t, ts, body); code != http.StatusOK {
			t.Fatalf("ingest %d: code=%d: %s", i, code, raw)
		}
		if _, qr, _ := postQuery(t, ts, read); qr.ResultCache == "hit" {
			hits++
		}
	}
	if hits != iters {
		t.Fatalf("cache hit rate %d/%d under unrelated writes, want %d/%d", hits, iters, iters, iters)
	}
}

// TestIngestValidation covers the write path's error surface.
func TestIngestValidation(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"engine":"nope","series":"x","ts":1,"value":2}`, http.StatusBadRequest},
		{`{"series":"x","ts":1,"value":2}`, http.StatusBadRequest},
		{`{"engine":"db-clinical","table":"patients","row":[1]}`, http.StatusBadRequest}, // arity mismatch
		{`{"engine":"db-clinical","table":"missing","row":[1]}`, http.StatusBadRequest},
		{`{"engine":"db-clinical","table":"patients","row":[1e19,95,1,0]}`, http.StatusBadRequest}, // beyond int64
		{`{"engine":"ml","series":"x","ts":1,"value":2}`, http.StatusBadRequest},                   // no Ingestor
		{`{"engine":"ts-vitals","series":"ingest/t","ts":5,"value":1.5}`, http.StatusOK},
	} {
		if code, raw := postIngest(t, ts, tc.body); code != tc.want {
			t.Fatalf("body %s: code=%d want %d: %s", tc.body, code, tc.want, raw)
		}
	}
}

// TestResultCacheByteBound checks cost-aware admission: with a byte budget
// smaller than any result, every entry bypasses the cache and repeats keep
// missing (instead of one giant entry flushing the cache).
func TestResultCacheByteBound(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{}, testOpt{seam: func(h http.Handler) http.Handler {
		return server.BoundResultBytes(h, 64)
	}})
	read := `{"frontend":"sql","statement":"SELECT pid, age FROM patients ORDER BY pid"}`
	for i := 0; i < 2; i++ {
		if _, qr, _ := postQuery(t, ts, read); qr.ResultCache != "miss" {
			t.Fatalf("iteration %d: result_cache = %q, want miss (oversized must bypass)", i, qr.ResultCache)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Bypassed int64 `json:"result_cache_bypassed"`
		Bytes    int64 `json:"result_cache_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Bypassed < 2 {
		t.Fatalf("result_cache_bypassed = %d, want >= 2", stats.Bypassed)
	}
	if stats.Bytes != 0 {
		t.Fatalf("result_cache_bytes = %d, want 0 (nothing admitted)", stats.Bytes)
	}
}

// TestIngestIntegersExact: an integer literal reaches an Int64 column
// exactly, past the 2^53 a float64 holds.
func TestIngestIntegersExact(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	row := `{"engine":"db-clinical","table":"patients","row":[9007199254740993,95,1,0]}`
	if code, raw := postIngest(t, ts, row); code != http.StatusOK {
		t.Fatalf("ingest: code=%d: %s", code, raw)
	}
	read := `{"frontend":"sql","statement":"SELECT pid FROM patients WHERE pid > 9007199254740000"}`
	if code, _, raw := postQuery(t, ts, read); code != http.StatusOK || !strings.Contains(raw, `"rows":[[9007199254740993]]`) {
		t.Fatalf("read back: code=%d: %s", code, raw)
	}
}

var _ = server.IngestResponse{} // keep the server import for the wire types
