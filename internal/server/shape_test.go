package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
)

// eventsStore is bench/'s events table in small — id, kind in [0, 32), and a
// value in eighths — beside patients(pid, age) for kind to join.
func eventsStore(t *testing.T, rows int) *relational.Store {
	t.Helper()
	store := relational.NewStore("db")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	patients, err := store.CreateTable("patients", cast.MustSchema(
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "age", Type: cast.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		if err := events.Insert(int64(i), int64(i%32), float64(rng.Intn(8000))/8); err != nil {
			t.Fatal(err)
		}
	}
	for pid := 0; pid < 40; pid++ {
		if err := patients.Insert(int64(pid), int64(20+rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestShapeFamiliesEqualFresh serves statements of one shape and several
// literal sets — bench/'s similar_family, cold_analytic and stream_scan
// templates — through one server with every reuse layer on. Each family
// compiles once, and every answer is a fresh server's. A result or
// subplan key that dropped the constants would answer one family member with
// another's rows.
func TestShapeFamiliesEqualFresh(t *testing.T) {
	store := eventsStore(t, 4096)
	cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 5000}
	families := map[string][]int{
		"SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT 10":                               {7, 3, 31},
		"SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= %d GROUP BY kind":                {700, 0, 4000},
		"SELECT id, value FROM events WHERE id >= %d ORDER BY value DESC LIMIT 50":                                {700, 0, 4000},
		"SELECT age, count(*) AS n FROM events JOIN patients ON kind = pid WHERE id >= %d GROUP BY age":           {700, 0, 4000},
		"SELECT count(*) AS n, min(value) AS lo, max(value) AS hi, sum(value) AS total FROM events WHERE id < %d": {2748, 1, 4096},
		"SELECT * FROM events WHERE id >= %d":                                                                     {3200, 4095, 3900},
	}
	srv := polystore.New(polystore.WithRelational("db", store)).Handler(cfg)
	for tmpl, args := range families {
		for _, a := range args {
			stmt := fmt.Sprintf(tmpl, a)
			body := fmt.Sprintf(`{"frontend":"sql","statement":%q}`, stmt)
			for round := 0; round < 2; round++ {
				got := deterministicResponse(t, serve(t, srv, http.MethodPost, "/query", body))
				fresh := polystore.New(polystore.WithRelational("db", store)).Handler(cfg)
				want := deterministicResponse(t, serve(t, fresh, http.MethodPost, "/query", body))
				if !strings.Contains(stmt, "ORDER BY") {
					sortRows(got.Rows)
					sortRows(want.Rows)
				}
				queryEqual(t, got, want, body)
			}
		}
	}
	if c := planStats(t, srv); c.Misses != int64(len(families)) {
		t.Errorf("%d plan-cache misses, want one per family: %d", c.Misses, len(families))
	}
}

// sortRows orders rows by their printed form, for results whose order the
// statement leaves open.
func sortRows(rows [][]any) {
	slices.SortFunc(rows, func(a, b []any) int { return strings.Compare(fmt.Sprint(a...), fmt.Sprint(b...)) })
}

// serve answers one request in process.
func serve(t *testing.T, h http.Handler, method, path, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestShapeFamilyCompilesOnce: bench/'s similar_family key space — 32 kinds
// x 64 LIMITs of one statement — is one shape, so it costs one parse and one
// compile: one plan-cache miss in 2 048 statements, every other one prepared
// from the plan its shape key maps to. Each statement still executes (the
// root probe answers none of the 2 048: its constants key the whole plan),
// and each answer is the one a fresh server, which parses and compiles the
// statement with nothing cached, gives.
func TestShapeFamilyCompilesOnce(t *testing.T) {
	store := eventsStore(t, 4096)
	cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 100}
	srv := polystore.New(polystore.WithRelational("db", store)).Handler(cfg)
	for k := 0; k < 32; k++ {
		for l := 1; l <= 64; l++ {
			body := fmt.Sprintf(`{"frontend":"sql","statement":"SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d"}`, k, l)
			got := deterministicResponse(t, serve(t, srv, http.MethodPost, "/query", body))
			fresh := polystore.New(polystore.WithRelational("db", store)).Handler(cfg)
			want := deterministicResponse(t, serve(t, fresh, http.MethodPost, "/query", body))
			if got.RowCount != l {
				t.Fatalf("%s: %d rows", body, got.RowCount)
			}
			queryEqual(t, got, want, body)
		}
	}
	var stats struct {
		PlanHits      int64 `json:"plan_cache_hits"`
		PlanMisses    int64 `json:"plan_cache_miss"`
		Sequential    int64 `json:"executor_sequential_plans"`
		Concurrent    int64 `json:"executor_concurrent_plans"`
		SubplanReused int64 `json:"subplan_plans_reused"`
	}
	if err := json.Unmarshal(serve(t, srv, http.MethodGet, "/stats", ""), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanMisses != 1 || stats.PlanHits != 2047 {
		t.Errorf("plan cache: %d misses, %d hits; want 1 and 2047", stats.PlanMisses, stats.PlanHits)
	}
	if executed := stats.Sequential + stats.Concurrent; executed != 2048 {
		t.Errorf("%d plans executed for 2048 distinct statements", executed)
	}
	if stats.SubplanReused == 0 {
		t.Error("no statement reused the kind's shared prefix")
	}
}

// TestProgramShapeFamilyEqualFresh serves bench/'s cross_engine program with
// its (a, v) redrawn 16 times through one server with every reuse layer on,
// each program twice. The server compiles once — one plan-cache miss, every
// other program prepared from the plan its program shape key maps to — and
// every answer is a fresh server's, which builds and compiles the program
// with nothing cached.
func TestProgramShapeFamilyEqualFresh(t *testing.T) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	var cfg polystore.ServeConfig
	rng := rand.New(rand.NewSource(44))
	srv := polystore.New(polystore.WithClinical(data)).Handler(cfg)
	for range 16 {
		req := server.QueryRequest{Frontend: "program", Program: server.CrossEngineProgram(20+rng.Intn(50), rng.Intn(8))}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fresh := polystore.New(polystore.WithClinical(data)).Handler(cfg)
		want := deterministicResponse(t, serve(t, fresh, http.MethodPost, "/query", string(body)))
		sortRows(want.Rows)
		for round := 0; round < 2; round++ {
			got := deterministicResponse(t, serve(t, srv, http.MethodPost, "/query", string(body)))
			sortRows(got.Rows)
			queryEqual(t, got, want, string(body))
		}
	}
	if c := planStats(t, srv); c.Misses != 1 {
		t.Errorf("%d plan-cache misses over 32 programs of one shape, want 1", c.Misses)
	}
}
