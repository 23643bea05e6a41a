package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"polystorepp"
	"polystorepp/internal/cast"
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

// TestRepeatedReadHitAndInvalidation covers the acceptance path: a repeated
// identical query is answered by the root probe, and a store mutation
// rotates its key so the next response reflects the new data.
func TestRepeatedReadHitAndInvalidation(t *testing.T) {
	data, ts := newTestDeployment(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 90 ORDER BY age DESC"}`

	hit, first := postProbed(t, ts, body)
	if hit {
		t.Fatal("first query answered by the root probe")
	}
	hit, second := postProbed(t, ts, body)
	if !hit {
		t.Fatal("repeat executed, want a root-probe hit")
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

	hit, third := postProbed(t, ts, body)
	if hit {
		t.Fatal("post-mutation query answered by the root probe (stale served?)")
	}
	if third.DataVersion <= first.DataVersion {
		t.Fatalf("data version did not advance on mutation: %d -> %d", first.DataVersion, third.DataVersion)
	}
	if third.RowCount != first.RowCount+1 {
		t.Fatalf("post-mutation rows = %d, want %d", third.RowCount, first.RowCount+1)
	}
}

// hotReads are the eight statements of bench/'s hot_rw workload; the last
// reads the audit table its writes go to.
var hotReads = []string{
	"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10",
	"SELECT count(*) AS n FROM patients",
	"SELECT gender_male, count(*) AS n, avg(age) AS mean_age FROM patients GROUP BY gender_male",
	"SELECT pid, prior_visits FROM patients WHERE prior_visits >= 6 LIMIT 20",
	"SELECT count(*) AS n FROM stays",
	"SELECT pid, icu_hours FROM stays WHERE icu_hours > 90 ORDER BY icu_hours DESC LIMIT 10",
	"SELECT long_stay, count(*) AS n FROM stays GROUP BY long_stay",
	"SELECT count(*) AS n FROM audit",
}

// TestHotReadsProbeEqualsExecuted: the eight hot_rw reads, repeated with a
// write to the audit table between rounds, answer the same on a default
// server — where the root probe answers every repeat over unchanged data —
// as on one without a subplan cache, where each executes: every response
// field but wall_us is equal.
func TestHotReadsProbeEqualsExecuted(t *testing.T) {
	deploy := func(opts ...testOpt) *httptest.Server {
		data, ts := newTestDeployment(t, polystore.ServeConfig{}, opts...)
		audit, err := data.Relational.CreateTable("audit", cast.MustSchema(
			cast.Column{Name: "id", Type: cast.Int64},
			cast.Column{Name: "pid", Type: cast.Int64},
			cast.Column{Name: "code", Type: cast.Int64},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := range 50 {
			if err := audit.Insert(int64(i), int64(i%120), int64(i%7)); err != nil {
				t.Fatal(err)
			}
		}
		return ts
	}
	cached, executed := deploy(), deploy(subplanBytes(-1))
	reply := func(ts *httptest.Server, body string) map[string]any {
		t.Helper()
		code, _, raw := postQuery(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "wall_us")
		return m
	}
	for round := range 3 {
		for i, stmt := range hotReads {
			body := fmt.Sprintf(`{"frontend":"sql","statement":%q}`, stmt)
			want := reply(executed, body)
			before := getProbeCounts(t, cached)
			got := reply(cached, body)
			// The audit read's data moved since the last round; every other
			// read repeats over unchanged data.
			after := getProbeCounts(t, cached)
			hit := after.Sequential+after.Concurrent == before.Sequential+before.Concurrent
			if wantHit := round > 0 && i < len(hotReads)-1; hit != wantHit {
				t.Fatalf("round %d, %s: root-probe hit %t, want %t", round, stmt, hit, wantHit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s:\n cached   %v\n executed %v", round, stmt, got, want)
			}
		}
		ingest := fmt.Sprintf(`{"engine":"db-clinical","table":"audit","row":[%d, 1, 2]}`, 1000+round)
		for _, ts := range []*httptest.Server{cached, executed} {
			if code, raw := postIngest(t, ts, ingest); code != http.StatusOK {
				t.Fatalf("ingest: code=%d: %s", code, raw)
			}
		}
	}
}

// TestSingleFlightConcurrentIdentical fires identical concurrent queries
// with the subplan cache off and a single worker: single-flight must keep
// the queue from overflowing and every response must be correct.
func TestSingleFlightConcurrentIdentical(t *testing.T) {
	_, ts := newTestDeployment(t, polystore.ServeConfig{Workers: 1, QueueDepth: -1}, subplanBytes(-1))
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
