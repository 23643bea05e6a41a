package server_test

import (
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
// mixed read/write workload, a write to engine A leaves the root probe
// answering reads whose plans touch only engine B — while a write to B
// stops it.
func TestSurgicalInvalidationAcrossEngines(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	read := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10"}`

	if hit, _ := postProbed(t, ts, read); hit {
		t.Fatal("warmup answered by the root probe")
	}
	if hit, _ := postProbed(t, ts, read); !hit {
		t.Fatal("repeat executed, want a root-probe hit")
	}

	// Write to the timeseries engine: the relational plan never touches it,
	// so the cached answer must survive.
	if code, raw := postIngest(t, ts, `{"engine":"ts-vitals","series":"mixed/hr","ts":1,"value":72}`); code != http.StatusOK {
		t.Fatalf("ts ingest: code=%d: %s", code, raw)
	}
	if hit, _ := postProbed(t, ts, read); !hit {
		t.Fatal("after an unrelated write the read executed, want a root-probe hit (invalidation was not surgical)")
	}

	// Write to the touched table: the cached answer must stop being served.
	if code, raw := postIngest(t, ts, `{"engine":"db-clinical","table":"patients","row":[424242, 95, 1, 0]}`); code != http.StatusOK {
		t.Fatalf("db ingest: code=%d: %s", code, raw)
	}
	hit, qr := postProbed(t, ts, read)
	if hit {
		t.Fatal("after a touched write the root probe answered")
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

// TestMixedWorkloadCacheHitRate: a 95/5-style loop of unrelated writes
// interleaved with one hot read keeps the read answered by the root probe
// on every iteration after the first.
func TestMixedWorkloadCacheHitRate(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{})
	read := `{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`
	if hit, _ := postProbed(t, ts, read); hit {
		t.Fatal("warmup answered by the root probe")
	}
	const iters = 50
	hits := 0
	for i := 0; i < iters; i++ {
		body := fmt.Sprintf(`{"engine":"ts-vitals","series":"mixed/rate","ts":%d,"value":68}`, 1_000_000_000+int64(i))
		if code, raw := postIngest(t, ts, body); code != http.StatusOK {
			t.Fatalf("ingest %d: code=%d: %s", i, code, raw)
		}
		if hit, _ := postProbed(t, ts, read); hit {
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
