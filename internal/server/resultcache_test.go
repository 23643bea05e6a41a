package server_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
)

// newTestDeployment is newTestServer but keeps the dataset handle so tests
// can mutate stores underneath the running server.
func newTestDeployment(t *testing.T, cfg polystore.ServeConfig, opts ...testOpt) (*datagen.Clinical, *httptest.Server) {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DefaultSQLEngine = "db-clinical"
	cfg.DefaultTextEngine = "txt-notes"
	return data, serveTest(t, cfg, opts,
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU()),
	)
}

// TestResultCacheHitAndInvalidation covers the acceptance path: repeated
// identical queries are served from the result cache, and a store mutation
// invalidates it so the next response reflects the new data.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	data, ts := newTestDeployment(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 90 ORDER BY age DESC"}`

	code, first, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if first.ResultCache != "miss" {
		t.Fatalf("first query result_cache = %q, want miss", first.ResultCache)
	}

	code, second, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, raw)
	}
	if second.ResultCache != "hit" {
		t.Fatalf("repeat result_cache = %q, want hit", second.ResultCache)
	}
	if second.DataVersion != first.DataVersion {
		t.Fatalf("data version moved without mutation: %d -> %d", first.DataVersion, second.DataVersion)
	}
	if second.RowCount != first.RowCount {
		t.Fatalf("cached row count %d != original %d", second.RowCount, first.RowCount)
	}

	// Mutate under the server: a 99-year-old must surface on the next query.
	patients, err := data.Relational.Table("patients")
	if err != nil {
		t.Fatal(err)
	}
	if err := patients.Insert(int64(1_000_000), int64(99), int64(1), int64(0)); err != nil {
		t.Fatal(err)
	}

	code, third, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("post-mutation status %d: %s", code, raw)
	}
	if third.ResultCache != "miss" {
		t.Fatalf("post-mutation result_cache = %q, want miss (stale served?)", third.ResultCache)
	}
	if third.DataVersion <= first.DataVersion {
		t.Fatalf("data version did not advance on mutation: %d -> %d", first.DataVersion, third.DataVersion)
	}
	if third.RowCount != first.RowCount+1 {
		t.Fatalf("post-mutation rows = %d, want %d", third.RowCount, first.RowCount+1)
	}
}

// TestResultCacheDisabled checks ResultCacheSize < 0 turns the layer off.
func TestResultCacheDisabled(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{ResultCacheSize: -1})
	body := `{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`
	for i := 0; i < 2; i++ {
		code, qr, raw := postQuery(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		if qr.ResultCache != "" {
			t.Fatalf("result_cache = %q with caching disabled", qr.ResultCache)
		}
	}
}

// TestSingleFlightConcurrentIdentical fires identical concurrent queries
// with caching disabled and a single worker: single-flight must keep the
// queue from overflowing and every response must be correct.
func TestSingleFlightConcurrentIdentical(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{
		Workers: 1, QueueDepth: -1, ResultCacheSize: -1,
	})
	body := `{"frontend":"sql","statement":"SELECT pid FROM patients ORDER BY pid LIMIT 7"}`
	const n = 24
	type outcome struct {
		code int
		rows int
	}
	outcomes := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			code, qr, _ := postQuery(t, ts, body)
			outcomes <- outcome{code, qr.RowCount}
		}()
	}
	for i := 0; i < n; i++ {
		o := <-outcomes
		if o.code != http.StatusOK {
			t.Fatalf("identical in-flight query got %d, want 200 (single-flight should absorb overload)", o.code)
		}
		if o.rows != 7 {
			t.Fatalf("rows = %d, want 7", o.rows)
		}
	}
}
