package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/backend"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
)

var update = flag.Bool("update", false, "rewrite testdata goldens and the generated block of docs/operations.md")

// The wire goldens pin what scrapers and /stats consumers (bench/,
// benchdiff -attr, the CI smokes) parse:
//
//   - testdata/stats_keys.golden: every /stats path with its JSON type —
//     top-level keys, the backend block, the union of the tenants rows'
//     fields and of the op_stats entries' fields. Captured from the commit
//     before the stat table (this file runs unchanged there with -update).
//   - testdata/metrics_families.golden: the /metrics family set, which is
//     complete from boot, the per-(engine, op) core_op_* families included.

// wireServer boots a server over a wal backend with a relational and a
// key/value store, one accelerator, and a tenant whose bucket holds a single
// token for the lifetime of the test.
func wireServer(t *testing.T) *Server {
	t.Helper()
	db := wireStore(t)
	kv := kvstore.New("kv")
	b, err := backend.Open("wal", backend.Config{Dir: t.TempDir(), Sync: backend.SyncGroup, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.Attach("db", db)
	b.Attach("kv", kv)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU(),
		core.WithDurabilityBarrier(b), core.WithAccelerators(hw.Coprocessor, hw.NewFPGA()))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(db)))
	rt.Register(adapter.NewKV("kv", kv))
	return New(rt, compiler.Options{}, Config{Backend: b, TenantRate: 0.001, TenantBurst: 1})
}

// wireStore is the relational store "db" holding t(a) = 0..49.
func wireStore(t *testing.T) *relational.Store {
	t.Helper()
	db := relational.NewStore("db")
	tbl, err := db.CreateTable("t", cast.MustSchema(cast.Column{Name: "a", Type: cast.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := tbl.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func wireDo(t *testing.T, s *Server, method, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// metricFamilies returns the sorted family names of a /metrics scrape.
func metricFamilies(t *testing.T, s *Server) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(wireDo(t, s, http.MethodGet, "/metrics", "scraper", "").Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2])
		}
	}
	sort.Strings(out)
	return out
}

// statsPaths flattens a /stats document into sorted "path type" lines. The
// rows of tenants and op_stats are keyed by runtime names, so their fields
// are unioned under "*".
func statsPaths(doc map[string]any) []string {
	set := map[string]bool{}
	jsonType := func(v any) string {
		switch v.(type) {
		case map[string]any:
			return "object"
		case []any:
			return "array"
		case string:
			return "string"
		case bool:
			return "bool"
		case float64:
			return "number"
		}
		return "null"
	}
	fields := func(prefix string, obj any) {
		m, _ := obj.(map[string]any)
		for k, v := range m {
			set[prefix+k+" "+jsonType(v)] = true
		}
	}
	fields("", doc)
	for _, block := range []string{"backend", "request_latency_us", "stream_ttfr_us"} {
		fields(block+".", doc[block])
	}
	for _, rows := range []string{"tenants", "op_stats"} {
		m, _ := doc[rows].(map[string]any)
		for _, row := range m {
			fields(rows+".*.", row)
		}
	}
	out := make([]string, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != text {
		t.Errorf("%s differs from the wire (run with -update only for an intended wire change):\n%s", name, lineDiff(strings.Split(strings.TrimSpace(string(want)), "\n"), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got []string) string {
	in := func(set []string, s string) bool {
		i := sort.SearchStrings(set, s)
		return i < len(set) && set[i] == s
	}
	var sb strings.Builder
	for _, w := range want {
		if !in(got, w) {
			fmt.Fprintf(&sb, "  missing: %s\n", w)
		}
	}
	for _, g := range got {
		if !in(want, g) {
			fmt.Fprintf(&sb, "  extra:   %s\n", g)
		}
	}
	return sb.String()
}

// TestWireGoldens asserts that the /metrics family set is complete before
// the first request, is not changed by reading /stats nor by traffic, and
// that both it and the /stats key set equal the committed goldens.
func TestWireGoldens(t *testing.T) {
	s := wireServer(t)
	boot := metricFamilies(t, s)

	if rec := wireDo(t, s, http.MethodGet, "/stats", "scraper", ""); rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	if afterStats := metricFamilies(t, s); strings.Join(afterStats, "\n") != strings.Join(boot, "\n") {
		t.Errorf("reading /stats changed the /metrics family set:\n%s", lineDiff(boot, afterStats))
	}

	const query = `{"frontend":"sql","engine":"db","statement":"SELECT a FROM t WHERE a > 10"}`
	for _, step := range []struct {
		path, tenant, body string
		want               int
	}{
		{"/query", "a", query, http.StatusOK},
		{"/query/stream", "b", query, http.StatusOK},
		{"/ingest", "c", `{"engine":"kv","key":"k","data":"v"}`, http.StatusOK},
		{"/query", "a", query, http.StatusTooManyRequests}, // a's only token is spent
	} {
		if rec := wireDo(t, s, http.MethodPost, step.path, step.tenant, step.body); rec.Code != step.want {
			t.Fatalf("%s as %s: status %d, want %d: %s", step.path, step.tenant, rec.Code, step.want, rec.Body)
		}
	}
	afterTraffic := metricFamilies(t, s)
	if strings.Join(afterTraffic, "\n") != strings.Join(boot, "\n") {
		t.Errorf("traffic changed the /metrics family set:\n%s", lineDiff(boot, afterTraffic))
	}
	checkGolden(t, "metrics_families.golden", afterTraffic)

	var doc map[string]any
	if err := json.Unmarshal(wireDo(t, s, http.MethodGet, "/stats", "scraper", "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_keys.golden", statsPaths(doc))
}
