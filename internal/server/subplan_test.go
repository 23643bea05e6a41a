// Server-level equivalence and observability tests of the subplan cache:
// with result caching and single-flight off, responses must be identical
// with the subplan cache on/off/cold/warm across partition fan-outs, for
// buffered and streamed requests, including under interleaved ingest
// writes; /stats must expose the cache counters.
package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"polystorepp"
	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/lru"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
)

// subplanTestServer is newStreamTestServer with single-flight off, so each
// request executes or replays the subplan cache itself. subplan sizes the
// subplan cache: 0 is the default (64 MiB), negative disables it.
func subplanTestServer(t *testing.T, subplan int64) *httptest.Server {
	return newStreamTestServer(t, polystore.ServeConfig{Workers: 8, QueueDepth: 256}, executeAll, subplanBytes(subplan))
}

// deterministicFields is the wall-independent slice of a QueryResponse:
// payload plus simulated execution outcome. Equivalence compares exactly
// these (WallMicros varies run to run by construction).
type deterministicFields struct {
	Columns           []string `json:"columns"`
	Rows              [][]any  `json:"rows"`
	RowCount          int      `json:"row_count"`
	Truncated         bool     `json:"truncated"`
	SimLatencySeconds float64  `json:"sim_latency_seconds"`
	SimEnergyJoules   float64  `json:"sim_energy_joules"`
	Migrations        int      `json:"migrations"`
	Nodes             int      `json:"nodes"`
}

func queryEqual(t *testing.T, got, want *deterministicFields, body string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("responses differ\nbody: %s\n got: %+v\nwant: %+v", body, got, want)
	}
}

func postRaw(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// deterministicResponse extracts the wall-independent fields of a response.
func deterministicResponse(t *testing.T, raw []byte) *deterministicFields {
	t.Helper()
	out := &deterministicFields{}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	return out
}

// TestSubplanEquivalenceProperty is the acceptance suite: four rounds of
// randomized query bodies, each executed against a subplan-off server
// (golden) and a subplan-on server cold then warm twice. Every response must
// match the golden byte-for-byte on the deterministic fields, buffered and
// streamed.
func TestSubplanEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, round := range rounds {
		bodies := randomQueryBodies(rng, 6)
		off := subplanTestServer(t, -1)
		on := subplanTestServer(t, 0)
		for i, body := range bodies {
			t.Run(fmt.Sprintf("q%d_parts%d", i, round), func(t *testing.T) {
				code, raw := postRaw(t, off, body)
				if code != http.StatusOK {
					t.Fatalf("off status %d: %s", code, raw)
				}
				want := deterministicResponse(t, raw)
				for round := 0; round < 3; round++ { // cold, warm, warm
					code, raw := postRaw(t, on, body)
					if code != http.StatusOK {
						t.Fatalf("on round %d status %d: %s", round, code, raw)
					}
					queryEqual(t, deterministicResponse(t, raw), want, body)
				}
				// Streamed warm replay must deliver the same rows.
				scode, lines, sraw := postStream(t, on, body)
				if scode != http.StatusOK {
					t.Fatalf("stream status %d: %s", scode, sraw)
				}
				_, batches, terminal := splitStream(t, lines)
				if terminal.Type == "summary" {
					rows := concatRows(batches)
					if len(rows) != want.RowCount {
						t.Fatalf("streamed %d rows, want %d", len(rows), want.RowCount)
					}
				}
			})
		}
	}
}

// TestSubplanInterleavedWrites alternates queries with ingest writes to a
// touched table: every post-write response must equal a subplan-off
// server's response to the same sequence (no stale intermediate is ever
// served), and writes to an untouched engine must not evict entries.
func TestSubplanInterleavedWrites(t *testing.T) {
	off := subplanTestServer(t, -1)
	on := subplanTestServer(t, 0)
	query := `{"frontend":"sql","statement":"SELECT k, val FROM points WHERE k > 9000 ORDER BY k","max_rows":100000}`
	ingest := func(k int) string {
		return fmt.Sprintf(`{"engine":"db-clinical","table":"points","row":[%d, 1, 0.5]}`, 20000+k)
	}
	for round := 0; round < 4; round++ {
		for _, ts := range []string{off.URL, on.URL} {
			resp, err := http.Post(ts+"/ingest", "application/json", strings.NewReader(ingest(round)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		code, raw := postRaw(t, off, query)
		if code != http.StatusOK {
			t.Fatalf("off status %d: %s", code, raw)
		}
		want := deterministicResponse(t, raw)
		if want.RowCount != 999+round+1 {
			t.Fatalf("round %d: off rows = %d", round, want.RowCount)
		}
		gcode, graw := postRaw(t, on, query)
		if gcode != http.StatusOK {
			t.Fatalf("on status %d: %s", gcode, graw)
		}
		queryEqual(t, deterministicResponse(t, graw), want, query)
		// Re-query without a write in between: warm path, same answer.
		gcode, graw = postRaw(t, on, query)
		if gcode != http.StatusOK {
			t.Fatalf("on warm status %d: %s", gcode, graw)
		}
		queryEqual(t, deterministicResponse(t, graw), want, query)
	}
}

// TestSubplanStatsSurface: /stats exposes the subplan cache's structural
// and behavioral counters, and a warm near-identical family moves them.
func TestSubplanStatsSurface(t *testing.T) {
	on := subplanTestServer(t, 0)
	// A LIMIT family over one shared prefix: distinct plan keys, shared
	// subplan prefix.
	for i := 1; i <= 5; i++ {
		body := fmt.Sprintf(`{"frontend":"sql","statement":"SELECT k, val FROM points WHERE k > 100 ORDER BY k DESC LIMIT %d","max_rows":100000}`, i*10)
		if code, raw := postRaw(t, on, body); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
	}
	resp, err := http.Get(on.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"subplan_cache_enabled", "subplan_cache_entries", "subplan_cache_bytes",
		"subplan_cache_max_bytes", "subplan_cache_evictions", "subplan_cache_hits",
		"subplan_cache_miss", "subplan_cache_published", "subplan_nodes_served",
		"subplan_bytes_served", "subplan_plans_probed", "subplan_plans_reused",
	} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/stats missing %q", key)
		}
	}
	if stats["subplan_cache_enabled"] != true {
		t.Fatal("subplan cache reported disabled")
	}
	if stats["subplan_cache_hits"].(float64) == 0 {
		t.Fatal("LIMIT family produced no subplan hits")
	}
	if stats["subplan_plans_reused"].(float64) == 0 {
		t.Fatal("no plan counted as reused")
	}

	// Disabled server reports the cache off and never probes.
	offSrv := subplanTestServer(t, -1)
	if code, raw := postRaw(t, offSrv, `{"frontend":"sql","statement":"SELECT k FROM points LIMIT 5"}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp2, err := http.Get(offSrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats2 map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&stats2); err != nil {
		t.Fatal(err)
	}
	if stats2["subplan_cache_enabled"] != false {
		t.Fatal("disabled server reports subplan cache enabled")
	}
	if stats2["subplan_plans_probed"].(float64) != 0 {
		t.Fatal("disabled server probed the subplan cache")
	}
}

// TestSubplanTraceEvents: a traced warm request carries cache.subplan hit
// events with key and bytes, and its served spans are flagged cached.
func TestSubplanTraceEvents(t *testing.T) {
	on := subplanTestServer(t, 0)
	body := `{"frontend":"sql","statement":"SELECT k, val FROM points WHERE k > 500 ORDER BY k LIMIT 20","max_rows":100000}`
	if code, raw := postRaw(t, on, body); code != http.StatusOK {
		t.Fatalf("prime status %d: %s", code, raw)
	}
	code, qr, raw := postQuery(t, on, withTrace(body))
	if code != http.StatusOK {
		t.Fatalf("traced status %d: %s", code, raw)
	}
	if qr.Trace == nil {
		t.Fatal("no trace returned")
	}
	foundEvent := false
	for _, ev := range qr.Trace.Events {
		if ev.Name == "cache.subplan" && strings.HasPrefix(ev.Detail, "hit ") {
			if !strings.Contains(ev.Detail, "key=") || !strings.Contains(ev.Detail, "bytes=") {
				t.Fatalf("hit event lacks key/bytes: %q", ev.Detail)
			}
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatal("warm traced request carries no cache.subplan hit event")
	}
	cached := 0
	for _, sp := range qr.Trace.Spans {
		if sp.Cached {
			cached++
			if sp.RunUS != 0 {
				t.Fatalf("cached span reports run time %dus", sp.RunUS)
			}
		}
	}
	if cached == 0 {
		t.Fatal("warm traced request has no cached spans")
	}
}

// TestSubplanTenantShareAtRuntimeSize: a server over a runtime whose subplan
// cache was sized when it was built (core.WithSubplanCacheBytes) holds each
// tenant to lru.DefaultTenantShare of that budget while another tenant holds
// entries.
func TestSubplanTenantShareAtRuntimeSize(t *testing.T) {
	const budget, share = 64 << 10, lru.DefaultTenantShare
	store := relational.NewStore("db")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "v", Type: cast.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	// 400 rows make the first tenant's filter outputs a few KiB each, so its
	// share binds before the cache's 16-entry bound does.
	for i := 0; i < 400; i++ {
		if err := events.Insert(int64(i), int64(i*7%400)); err != nil {
			t.Fatal(err)
		}
	}
	rt := core.NewRuntime(hw.NewHostCPU(), core.WithSubplanCacheBytes(budget))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	ts := httptest.NewServer(server.WithoutSingleFlight(server.New(rt, compiler.Options{Level: 3}, server.Config{
		DefaultSQLEngine: "db",
	})))
	defer ts.Close()
	query := func(tenant string, k int) {
		t.Helper()
		body := fmt.Sprintf(`{"frontend":"sql","statement":"SELECT id, v FROM events WHERE id >= %d ORDER BY v LIMIT 10"}`, k)
		if resp, raw := postAs(t, ts.URL+"/query", body, tenant); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s k=%d: status %d: %s", tenant, k, resp.StatusCode, raw)
		}
	}
	query("second", 0)
	for k := 1; k <= 40; k++ {
		query("first", k)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		MaxBytes int64 `json:"subplan_cache_max_bytes"`
		Tenants  map[string]struct {
			SubplanBytes int64 `json:"subplan_cache_bytes"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.MaxBytes != budget {
		t.Fatalf("subplan cache holds %d bytes, want the runtime's %d", stats.MaxBytes, budget)
	}
	if got := stats.Tenants["first"].SubplanBytes; got == 0 || got > int64(share*budget) {
		t.Fatalf("first tenant holds %d subplan bytes, want 1..%d (%.2f of %d)", got, int64(share*budget), share, budget)
	}
	if stats.Tenants["second"].SubplanBytes == 0 {
		t.Fatal("the second tenant's entries are gone: the share no longer binds")
	}
}

// TestOneSystemOneSubplanCache: a System's servers share its one subplan
// cache, sized when the System was built. Building a second handler leaves
// the first server's warm intermediates in place, so the first server's
// repeat of a query hits the cache.
func TestOneSystemOneSubplanCache(t *testing.T) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	sys := polystore.New(polystore.WithClinical(data))
	cfg := polystore.ServeConfig{DefaultSQLEngine: "db-clinical"}
	a := httptest.NewServer(sys.Handler(cfg))
	defer a.Close()
	body := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10"}`
	if code, raw := postRaw(t, a, body); code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, raw)
	}
	sys.Handler(cfg) // a second server over the same System
	if code, raw := postRaw(t, a, body); code != http.StatusOK {
		t.Fatalf("second run: status %d: %s", code, raw)
	}
	resp, err := http.Get(a.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Hits int64 `json:"subplan_cache_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hits < 1 {
		t.Fatalf("subplan_cache_hits = %d after the repeat, want >= 1: building a handler emptied the cache", stats.Hits)
	}
}
