package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/relational"
)

// engineRows runs sql on the native engine and returns its rows as the wire
// spells them, decoded like a response's.
func engineRows(t *testing.T, e *relational.Engine, sql string) [][]any {
	t.Helper()
	out, _, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	raw, err := out.AppendJSONRows(nil, 0, out.Rows())
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// sameRows compares two row lists, an empty one equal to nil.
func sameRows(got, want [][]any) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// TestSortLimitServedIsFullSortPrefix: ORDER BY … LIMIT n, served as a
// bounded top-n, answers the full sort's first n rows — ties in row order —
// and what Engine.Query answers. The statements are bench/'s cold_analytic
// and similar_family sort templates, a two-key order over heavily tied
// strings, and GROUP BY … ORDER BY … LIMIT with tied counts; each runs with
// the subplan cache on and off, over /query and /query/stream, for limits
// inside, at and beyond the row count.
func TestSortLimitServedIsFullSortPrefix(t *testing.T) {
	store := eventsStore(t, 4096)
	labels, err := store.CreateTable("labels", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "tag", Type: cast.String},
		cast.Column{Name: "grade", Type: cast.String},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := labels.Insert(int64(i), fmt.Sprint("t", i%7), string(rune('a'+i%3))); err != nil {
			t.Fatal(err)
		}
	}
	engine := relational.NewEngine(store)
	templates := []string{
		"SELECT id, value FROM events WHERE id >= 700 ORDER BY value DESC%s",
		"SELECT id, value FROM events WHERE kind = 7 ORDER BY value DESC%s",
		"SELECT id, tag, grade FROM labels ORDER BY grade DESC, tag%s",
		"SELECT kind, count(*) AS n FROM events WHERE id >= 100 GROUP BY kind ORDER BY n DESC%s",
		"SELECT kind, count(*) AS n, sum(value) AS total FROM events GROUP BY kind ORDER BY total%s",
	}
	limits := []int{0, 1, 2, 7, 50, 128, 1 << 40}
	// One server with the subplan cache on, one with it off.
	servers := map[string]*httptest.Server{}
	for name, subplan := range map[string]int64{"subplan-on": 0, "subplan-off": -1} {
		cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 10000}
		servers[name] = serveTest(t, cfg, []testOpt{executeAll, subplanBytes(subplan)},
			polystore.WithRelational("db", store))
	}
	for _, tmpl := range templates {
		full := engineRows(t, engine, fmt.Sprintf(tmpl, ""))
		for _, n := range limits {
			stmt := fmt.Sprintf(tmpl, fmt.Sprintf(" LIMIT %d", n))
			want := full[:min(n, len(full))]
			if native := engineRows(t, engine, stmt); !sameRows(native, want) {
				t.Fatalf("%s: Engine.Query answers %v, the full sort's prefix is %v", stmt, native, want)
			}
			body := fmt.Sprintf(`{"frontend":"sql","statement":%q}`, stmt)
			for name, ts := range servers {
				code, qr, raw := postQuery(t, ts, body)
				if code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", name, body, code, raw)
				}
				if !sameRows(qr.Rows, want) {
					t.Fatalf("%s %s:\n served %v\n full sort's prefix %v", name, body, qr.Rows, want)
				}
				scode, lines, sraw := postStream(t, ts, body)
				if scode != http.StatusOK {
					t.Fatalf("%s stream %s: status %d: %s", name, body, scode, sraw)
				}
				_, batches, terminal := splitStream(t, lines)
				if terminal.Type != "summary" {
					t.Fatalf("%s stream %s: %+v", name, body, terminal)
				}
				if got := concatRows(batches); !sameRows(got, want) {
					t.Fatalf("%s stream %s:\n streamed %v\n full sort's prefix %v", name, body, got, want)
				}
			}
		}
	}
	// The LIMIT families shared their scan -> filter prefixes on the server
	// that caches them.
	var stats struct {
		SubplanReused int64 `json:"subplan_plans_reused"`
	}
	code, raw := getRaw(t, servers["subplan-on"], "/stats")
	if err := json.Unmarshal(raw, &stats); code != http.StatusOK || err != nil {
		t.Fatalf("/stats: %d %v", code, err)
	}
	if stats.SubplanReused == 0 {
		t.Fatal("no statement reused a shared prefix")
	}
}

// getRaw fetches path and returns the status and body.
func getRaw(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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
