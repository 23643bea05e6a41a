package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/metrics"
	"polystorepp/internal/relational"
)

// statBlocks returns every block of the table: the top level, the backend
// block, one tenant row and one op_stats row.
func statBlocks(s *Server) map[string][]stat {
	return map[string][]stat{
		"top level": s.topLevel(),
		"backend":   s.backendStats(),
		"tenants":   tenantDefs(&tenantState{}, 0),
		"op_stats":  opSchema,
	}
}

// TestStatTableInvariants: no /stats key is declared twice within a block,
// no /metrics family twice anywhere, every declaration is documented and
// rendered somewhere, and counters stay integers on the wire.
func TestStatTableInvariants(t *testing.T) {
	s := wireServer(t)
	families := map[string]string{}
	for block, defs := range statBlocks(s) {
		keys := map[string]bool{}
		for _, d := range defs {
			id := block + "/" + d.key + "/" + d.name
			if d.key == "" && d.name == "" {
				t.Errorf("%s: rendered nowhere", id)
			}
			if d.help == "" {
				t.Errorf("%s: no help text", id)
			}
			if d.key != "" && keys[d.key] {
				t.Errorf("%s: duplicate /stats key", id)
			}
			keys[d.key] = true
			if d.name != "" {
				f := metrics.SanitizeMetricName(d.name)
				if prev, dup := families[f]; dup {
					t.Errorf("%s: family %s already declared by %s", id, f, prev)
				}
				families[f] = id
			}
			if d.kind == kindInfo && d.name != "" {
				t.Errorf("%s: an info declaration has no /metrics rendering", id)
			}
			switch v := d.get().(type) {
			case int64, int, uint64:
			case float64:
				// A counter is a whole number on the wire, except a sum of
				// seconds (a _seconds_total family).
				if d.kind == kindCounter && !strings.HasSuffix(d.name, "_seconds_total") {
					t.Errorf("%s: counter renders as float %v", id, v)
				}
			default:
				if d.kind == kindCounter || d.kind == kindGauge {
					t.Errorf("%s: %s renders as %T", id, d.kind, v)
				}
			}
		}
	}
}

// TestPlanCacheStatsAgree: one counter per event — /stats and /metrics
// report the plan cache's own counts.
func TestPlanCacheStatsAgree(t *testing.T) {
	s := wireServer(t)
	const query = `{"frontend":"sql","engine":"db","statement":"SELECT a FROM t WHERE a > 10"}`
	wireDo(t, s, http.MethodPost, "/query", "a", query)
	wireDo(t, s, http.MethodPost, "/query/stream", "b", query)
	prom, stats := scrape(t, s)
	if stats["plan_cache_miss"] < 1 || stats["plan_cache_miss"] != prom["server_plancache_misses"] || stats["plan_cache_hits"] != prom["server_plancache_hits"] {
		t.Errorf("plan cache: /stats hits=%v miss=%v, /metrics hits=%v misses=%v", stats["plan_cache_hits"], stats["plan_cache_miss"],
			prom["server_plancache_hits"], prom["server_plancache_misses"])
	}
}

// scrape reads every unlabelled /metrics sample and the numeric top-level
// /stats values.
func scrape(t *testing.T, s *Server) (prom, stats map[string]float64) {
	t.Helper()
	prom, stats = map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(wireDo(t, s, http.MethodGet, "/metrics", "scraper", "").Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.Contains(f[0], "{") {
			prom[f[0]], _ = strconv.ParseFloat(f[1], 64)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(wireDo(t, s, http.MethodGet, "/stats", "scraper", "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for k, v := range doc {
		switch v := v.(type) {
		case float64:
			stats[k] = v
		case map[string]any: // latency histograms report their count
			if n, ok := v["count"].(float64); ok {
				stats[k] = n
			}
		}
	}
	return prom, stats
}

// statValue reads a numeric top-level /stats key, failing when /stats has
// none of that name.
func statValue(t *testing.T, s *Server, key string) int64 {
	t.Helper()
	_, stats := scrape(t, s)
	v, ok := stats[key]
	if !ok {
		t.Fatalf("/stats has no numeric key %q", key)
	}
	return int64(v)
}

// moved lists the names whose value differs between two scrapes.
func moved(before, after map[string]float64) []string {
	var out []string
	for k, v := range after {
		if v != before[k] {
			out = append(out, fmt.Sprintf("%s%+g", k, v-before[k]))
		}
	}
	return out
}

// TestStatHandlesReadBack bumps every handle the request path holds once and
// reads it back through both renderers: exactly one declared family moves
// on /metrics, by one, and exactly its declared /stats key (if it has one)
// — so each handle is the one the table reports under its name, and no
// two handles share a declaration.
func TestStatHandlesReadBack(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	declared := map[string]stat{} // family → declaration; a histogram's by its _count
	var histograms []string
	for _, d := range s.stats {
		family := metrics.SanitizeMetricName(d.name)
		if d.kind == kindHistogram {
			histograms = append(histograms, family)
			family += "_count"
		}
		if d.name != "" {
			declared[family] = d
		}
	}
	// A histogram observation also moves its _sum and quantiles.
	sibling := func(family string) bool {
		for _, h := range histograms {
			if strings.HasPrefix(family, h+"_") && family != h+"_count" {
				return true
			}
		}
		return false
	}
	bumpedBy := map[string]string{}
	held := reflect.ValueOf(&s.st).Elem()
	for i := 0; i < held.NumField(); i++ {
		field := held.Type().Field(i).Name
		f := held.Field(i)
		handle := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
		promBefore, statsBefore := scrape(t, s)
		switch h := handle.(type) {
		case *metrics.Counter:
			h.Inc()
		case *metrics.Histogram:
			h.Observe(0.001)
		default:
			t.Fatalf("serverStats.%s is a %T", field, h)
		}
		promAfter, statsAfter := scrape(t, s)

		var gotProm []string
		for _, m := range moved(promBefore, promAfter) {
			if !sibling(m[:strings.IndexAny(m, "+-")]) {
				gotProm = append(gotProm, m)
			}
		}
		if len(gotProm) != 1 || !strings.HasSuffix(gotProm[0], "+1") {
			t.Errorf("serverStats.%s: /metrics moved %v, want one declared family +1", field, gotProm)
			continue
		}
		family := strings.TrimSuffix(gotProm[0], "+1")
		want, ok := declared[family]
		if !ok {
			t.Errorf("serverStats.%s: moved %s, which the table does not declare", field, family)
			continue
		}
		if prev, dup := bumpedBy[family]; dup {
			t.Errorf("serverStats.%s and .%s both move %s", prev, field, family)
		}
		bumpedBy[family] = field
		gotStats := moved(statsBefore, statsAfter)
		if want.key == "" && len(gotStats) != 0 || want.key != "" && (len(gotStats) != 1 || gotStats[0] != want.key+"+1") {
			t.Errorf("serverStats.%s: /stats moved %v, want only %q+1", field, gotStats, want.key)
		}
	}
}

// TestServersOverOneRuntimeCountTheirOwn: two servers over one runtime each
// count their own requests and plan-cache lookups, while the runtime's
// counters — the subplan cache's and the executor's — read the same on both.
func TestServersOverOneRuntimeCountTheirOwn(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(wireStore(t))))
	busy := New(rt, compiler.Options{}, Config{})
	idle := New(rt, compiler.Options{}, Config{})
	const query = `{"frontend":"sql","engine":"db","statement":"SELECT a FROM t WHERE a > 10"}`
	for i := 0; i < 3; i++ {
		if rec := wireDo(t, busy, http.MethodPost, "/query", "a", query); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	busyProm, busyStats := scrape(t, busy)
	idleProm, idleStats := scrape(t, idle)
	for key, family := range map[string]string{
		"requests":        "server_requests",
		"plan_cache_hits": "server_plancache_hits",
		"plan_cache_miss": "server_plancache_misses",
	} {
		if _, ok := idleStats[key]; !ok {
			t.Fatalf("/stats has no key %q", key)
		}
		if _, ok := idleProm[family]; !ok {
			t.Fatalf("/metrics has no family %s", family)
		}
		if idleStats[key] != 0 || idleProm[family] != 0 {
			t.Errorf("idle server: /stats %s = %v, /metrics %s = %v; want 0", key, idleStats[key], family, idleProm[family])
		}
	}
	if n := busyStats["requests"]; n != 3 || n != busyStats["request_latency_us"] {
		t.Errorf("busy server: requests = %v, request_latency_us.count = %v; want 3 and 3", n, busyStats["request_latency_us"])
	}
	if busyStats["executor_sequential_plans"]+busyStats["executor_concurrent_plans"] == 0 {
		t.Fatal("the runtime counted no executed plan")
	}
	shared := 0
	for key, v := range busyStats {
		if strings.HasPrefix(key, "subplan_") || strings.HasPrefix(key, "executor_") {
			shared++
			if idleStats[key] != v {
				t.Errorf("/stats %s: busy server reads %v, idle server %v", key, v, idleStats[key])
			}
		}
	}
	for family, v := range busyProm {
		if strings.HasPrefix(family, "core_") {
			shared++
			if idleProm[family] != v {
				t.Errorf("/metrics %s: busy server reads %v, idle server %v", family, v, idleProm[family])
			}
		}
	}
	if shared == 0 {
		t.Fatal("no runtime counter was compared")
	}
}

// TestOpStatsRows: each (engine, op) aggregate renders from one set of
// declarations as a /stats op_stats row keyed engine/op and as one labelled
// sample in every core_op_* family, and those families exist from boot.
func TestOpStatsRows(t *testing.T) {
	s := wireServer(t)
	boot := wireDo(t, s, http.MethodGet, "/metrics", "scraper", "").Body.String()
	for _, d := range opSchema {
		if d.name == "" {
			continue
		}
		if header := "# TYPE " + metrics.SanitizeMetricName(d.name) + " " + d.kind + "\n"; !strings.Contains(boot, header) {
			t.Errorf("/metrics at boot lacks %q", strings.TrimSpace(header))
		}
	}

	const query = `{"frontend":"sql","engine":"db","statement":"SELECT a FROM t WHERE a > 10"}`
	if rec := wireDo(t, s, http.MethodPost, "/query", "a", query); rec.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		OpStats map[string]map[string]any `json:"op_stats"`
	}
	if err := json.Unmarshal(wireDo(t, s, http.MethodGet, "/stats", "scraper", "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(wireDo(t, s, http.MethodGet, "/metrics", "scraper", "").Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "core_op_") {
			samples[f[0]], _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if len(doc.OpStats) == 0 {
		t.Fatal("/stats op_stats is empty after a served query")
	}
	for key, row := range doc.OpStats {
		if key != fmt.Sprint(row["engine"], "/", row["op"]) {
			t.Errorf("op_stats row %s names engine %v, op %v", key, row["engine"], row["op"])
		}
		if n, _ := row["count"].(float64); n < 1 {
			t.Errorf("op_stats %s: count = %v, want at least 1", key, row["count"])
		}
		labels := fmt.Sprintf("{engine=%q,op=%q}", row["engine"], row["op"])
		for _, d := range opSchema {
			if d.key == "" || d.name == "" {
				continue
			}
			sample := metrics.SanitizeMetricName(d.name) + labels
			if got, ok := samples[sample]; !ok || got != row[d.key] {
				t.Errorf("%s = %v (present %v), /stats op_stats %s.%s = %v", sample, got, ok, key, d.key, row[d.key])
			}
		}
	}
}

// writeDocs renders one block as rows of the generated table in
// docs/operations.md: /stats key, /metrics family, kind, meaning.
func writeDocs(w io.Writer, section string, defs []stat) {
	fmt.Fprintf(w, "| **%s** | | | |\n", section)
	cell := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	for _, d := range defs {
		family := metrics.SanitizeMetricName(d.name)
		if d.kind == kindHistogram {
			family += "_{count,sum,p50,p95,p99}"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", cell(d.key), cell(family), d.kind, d.help)
	}
}

// TestOperationsDocInSync regenerates the stat table of docs/operations.md
// from the declarations and fails when the committed block differs
// (-update rewrites it).
func TestOperationsDocInSync(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	var sb strings.Builder
	sb.WriteString("| `/stats` key | `/metrics` family | kind | meaning |\n|---|---|---|---|\n")
	writeDocs(&sb, "top level", s.topLevel())
	writeDocs(&sb, "`backend` block", s.backendStats())
	writeDocs(&sb, "`tenants` rows (their `/metrics` samples carry a `tenant` label)", tenantDefs(&tenantState{}, 0))
	writeDocs(&sb, "`op_stats` rows (keyed `engine/op`; their `/metrics` samples carry `engine` and `op` labels)", opSchema)

	const path, begin, end = "../../docs/operations.md", "<!-- stats:begin -->\n", "<!-- stats:end -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %s ... %s block", path, strings.TrimSpace(begin), end)
	}
	i += len(begin)
	if doc[i:j] == sb.String() {
		return
	}
	if !*update {
		t.Fatalf("the stat table in %s is out of date; run go test ./internal/server -run TestOperationsDocInSync -update", path)
	}
	if err := os.WriteFile(path, []byte(doc[:i]+sb.String()+doc[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
