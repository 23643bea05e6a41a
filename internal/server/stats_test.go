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

	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/metrics"
)

// statBlocks returns every block of the table: the top level, the backend
// block and one tenant row.
func statBlocks(s *Server) map[string][]stat {
	return map[string][]stat{
		"top level": s.topLevel(),
		"backend":   s.backendStats(),
		"tenants":   tenantDefs(&tenantState{}, 0),
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
				if d.kind == kindCounter {
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

// TestStatTableCoversRegistry: every counter and gauge the runtime and the
// server registered by name is declared in the table — a registry name the
// table misses would be bumped but never reported.
func TestStatTableCoversRegistry(t *testing.T) {
	s := wireServer(t)
	const query = `{"frontend":"sql","engine":"db","statement":"SELECT a FROM t WHERE a > 10"}`
	wireDo(t, s, http.MethodPost, "/query", "a", query)
	wireDo(t, s, http.MethodPost, "/query/stream", "b", query)
	declared := map[string]bool{}
	for _, d := range s.stats {
		declared[d.name] = true
	}
	for _, name := range s.rt.Metrics().Names() {
		if !declared[name] {
			t.Errorf("registry metric %s is not declared in the stat table", name)
		}
	}
	// One counter per event: both endpoints report the plan cache's own
	// counts.
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
// reads it back through both renderers: exactly the declared family moves on
// /metrics (and the declared key on /stats), by one — so the counter a bump
// site holds is the one the table reports under that name.
func TestStatHandlesReadBack(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	reg := s.rt.Metrics()
	held := reflect.ValueOf(&s.st).Elem()
	for i := 0; i < held.NumField(); i++ {
		field, ptr := held.Type().Field(i).Name, held.Field(i).Pointer()
		var (
			want stat
			bump func()
		)
		for _, d := range s.stats {
			if d.hist != nil && reflect.ValueOf(d.hist).Pointer() == ptr {
				want, bump = d, func() { d.hist.Observe(0.001) }
				want.name += "_count"
			} else if d.kind == kindCounter && d.name != "" {
				if c := reg.Counter(d.name); reflect.ValueOf(c).Pointer() == ptr {
					want, bump = d, c.Inc
				}
			}
		}
		if bump == nil {
			t.Fatalf("serverStats.%s is held by no declaration", field)
		}
		promBefore, statsBefore := scrape(t, s)
		bump()
		promAfter, statsAfter := scrape(t, s)

		family := metrics.SanitizeMetricName(want.name)
		var gotProm []string
		for _, m := range moved(promBefore, promAfter) {
			// A histogram observation also moves its _sum and quantiles.
			if m == family+"+1" || !strings.HasPrefix(m, strings.TrimSuffix(family, "_count")) {
				gotProm = append(gotProm, m)
			}
		}
		if len(gotProm) != 1 || gotProm[0] != family+"+1" {
			t.Errorf("serverStats.%s: /metrics moved %v, want only %s+1", field, gotProm, family)
		}
		gotStats := moved(statsBefore, statsAfter)
		if want.key == "" && len(gotStats) != 0 || want.key != "" && (len(gotStats) != 1 || gotStats[0] != want.key+"+1") {
			t.Errorf("serverStats.%s: /stats moved %v, want only %q+1", field, gotStats, want.key)
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
