package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
)

// preparedStore is internal/core's lowering dataset in kind: the clinical
// tables (B-trees on pid), events(id, kind, value) and visits(vid, vpid,
// cost) under a B-tree on vid.
func preparedStore(t *testing.T) *relational.Store {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(19)), 300)
	if err != nil {
		t.Fatal(err)
	}
	s := data.Relational
	events, err := s.CreateTable("events", cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64}, cast.Column{Name: "value", Type: cast.Float64}))
	if err != nil {
		t.Fatal(err)
	}
	visits, err := s.CreateTable("visits", cast.MustSchema(cast.Column{Name: "vid", Type: cast.Int64},
		cast.Column{Name: "vpid", Type: cast.Int64}, cast.Column{Name: "cost", Type: cast.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		if err := events.Insert(int64(i), int64(i%32), float64(rng.Intn(8000))/8); err != nil {
			t.Fatal(err)
		}
	}
	for _, vid := range rng.Perm(900) {
		if err := visits.Insert(int64(vid), int64(rng.Intn(300)), int64(rng.Intn(500))); err != nil {
			t.Fatal(err)
		}
	}
	if err := visits.CreateBTreeIndex("vid"); err != nil {
		t.Fatal(err)
	}
	return s
}

// newPreparedServer is a server with every reuse layer on over its own
// runtime, so a new one has nothing cached.
func newPreparedServer(store *relational.Store) *server.Server {
	cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 5000}
	return polystore.New(polystore.WithRelational("db", store)).Handler(cfg).(*server.Server)
}

// literal matches a string or an integer literal of the statements below.
var literal = regexp.MustCompile(`'[^']*'|\b[0-9]+\b`)

// redrawn is sql with every literal replaced by another of its type.
func redrawn(sql string, rng *rand.Rand) string {
	return literal.ReplaceAllStringFunc(sql, func(lit string) string {
		if strings.HasPrefix(lit, "'") {
			return []string{"'icu'", "'ward'", "'zz'"}[rng.Intn(3)]
		}
		return fmt.Sprint(rng.Intn(400))
	})
}

// answer serves a /query body and returns its status and, on 200, its
// wall-independent fields (rows sorted unless the statement orders them).
func answer(t *testing.T, h http.Handler, stmt, body string) (int, *deterministicFields, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, nil, rec.Body.String()
	}
	got := deterministicResponse(t, rec.Body.Bytes())
	if !strings.Contains(stmt, "ORDER BY") {
		sortRows(got.Rows)
	}
	return rec.Code, got, ""
}

// TestPreparedEqualsParsed: TestNativeEqualsServed's statements — its corpus
// and its generated ones — and each again with its literals redrawn, served
// twice by one server, which prepares a statement of a compiled shape from
// the plan it maps the shape key to, and once by a fresh server, which
// parses it. Both prepare the same plan key, bind vector and touches, and
// answer alike.
func TestPreparedEqualsParsed(t *testing.T) {
	text, err := os.ReadFile("../core/testdata/lowering_statements.txt")
	if err != nil {
		t.Fatal(err)
	}
	stmts := strings.Split(strings.TrimSpace(string(text)), "\n")
	store := preparedStore(t)
	memo := newPreparedServer(store)
	rng := rand.New(rand.NewSource(43))
	for _, sql := range stmts {
		for _, stmt := range []string{sql, redrawn(sql, rng)} {
			req := server.QueryRequest{Frontend: "sql", Statement: stmt}
			body := fmt.Sprintf(`{"frontend":"sql","statement":%q}`, stmt)
			fresh := newPreparedServer(store)
			want, err := fresh.Prepare(req)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			wantCode, wantResp, wantErr := answer(t, fresh, stmt, body)
			for round := 0; round < 2; round++ {
				got, err := memo.Prepare(req)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				if got.PlanKey != want.PlanKey || !slices.Equal(got.Binds, want.Binds) || !reflect.DeepEqual(got.Touches, want.Touches) {
					t.Fatalf("%s, round %d: prepared\n %+v\nparsed\n %+v", stmt, round, got, want)
				}
				code, resp, errBody := answer(t, memo, stmt, body)
				if code != wantCode || errBody != wantErr || !reflect.DeepEqual(resp, wantResp) {
					t.Fatalf("%s, round %d: %d %+v %s\nfresh: %d %+v %s", stmt, round, code, resp, errBody, wantCode, wantResp, wantErr)
				}
			}
		}
	}
	if hits := planStats(t, memo).Hits; hits < int64(2*len(stmts)) {
		t.Errorf("%d plan-cache hits over %d statements served twice each way", hits, len(stmts))
	}
}

type planCounts struct {
	Hits   int64 `json:"plan_cache_hits"`
	Misses int64 `json:"plan_cache_miss"`
	Size   int   `json:"plan_cache_size"`
}

func planStats(t *testing.T, h http.Handler) planCounts {
	t.Helper()
	var c planCounts
	if err := json.Unmarshal(serve(t, h, http.MethodGet, "/stats", ""), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestValueShapedStatementsParseEveryTime: a statement one of whose literals
// shapes it by value is never a template. SELECT value * 2 names its column
// after the 2, so SELECT value * 3 must answer a column named after the 3; a
// WHERE that is only a literal keeps it in the graph. Nor is one whose parse
// lifts other literals than the lexer found: a column named true lexes as a
// literal but is a name to the parser. Each is parsed every time, and its
// plan cached under its plan key alone: no shape key reaches the cache.
func TestValueShapedStatementsParseEveryTime(t *testing.T) {
	store := preparedStore(t)
	srv := newPreparedServer(store)
	planKeys := map[string]bool{}
	for _, stmt := range []string{
		"SELECT id, value * 2 FROM events WHERE id < 3",
		"SELECT id, value * 3 FROM events WHERE id < 3",
		"SELECT id FROM events WHERE 1",
		"SELECT id FROM events WHERE 2",
		"SELECT id FROM events WHERE true",
		"SELECT id FROM events WHERE false",
		"SELECT id AS true FROM events WHERE id < 3",
		"SELECT id AS false FROM events WHERE id < 4",
	} {
		body := fmt.Sprintf(`{"frontend":"sql","statement":%q}`, stmt)
		fresh := newPreparedServer(store)
		p, err := fresh.Prepare(server.QueryRequest{Frontend: "sql", Statement: stmt})
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		planKeys[p.PlanKey] = true
		wantCode, want, wantErr := answer(t, fresh, stmt, body)
		for round := 0; round < 2; round++ {
			code, got, errBody := answer(t, srv, stmt, body)
			if code != wantCode || errBody != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, round %d: %d %+v %s\nfresh: %d %+v %s", stmt, round, code, got, errBody, wantCode, want, wantErr)
			}
		}
	}
	_, got, _ := answer(t, srv, "", `{"frontend":"sql","statement":"SELECT id, value * 3 FROM events WHERE id < 3"}`)
	if want := []string{"id", "(value * 3)"}; !reflect.DeepEqual(got.Columns, want) {
		t.Errorf("columns %q, want %q", got.Columns, want)
	}
	_, got, _ = answer(t, srv, "", `{"frontend":"sql","statement":"SELECT id AS false FROM events WHERE id < 4"}`)
	if want := []string{"false"}; !reflect.DeepEqual(got.Columns, want) {
		t.Errorf("columns %q, want %q", got.Columns, want)
	}
	// One compile and one entry per plan key; every other request found its
	// plan under that key.
	if c := planStats(t, srv); c.Misses != int64(len(planKeys)) || c.Hits != 18-c.Misses || c.Size != len(planKeys) {
		t.Errorf("plan cache: %d hits, %d misses, %d entries; want %d misses and entries over 18 requests", c.Hits, c.Misses, c.Size, len(planKeys))
	}
}

// TestPlanCacheSeparatesParts: "parts" pins the fan-out the graph is
// compiled at, so each fan-out has its own shape key and plan.
func TestPlanCacheSeparatesParts(t *testing.T) {
	srv := newPreparedServer(preparedStore(t))
	const stmt = "SELECT kind, count(*) AS n FROM events WHERE id >= 700 GROUP BY kind"
	keys := map[string]bool{}
	for round := 0; round < 2; round++ {
		for _, parts := range []int{1, 2, 7, 64} {
			p, err := srv.Prepare(server.QueryRequest{Frontend: "sql", Statement: stmt, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			keys[p.PlanKey] = true
			body := fmt.Sprintf(`{"frontend":"sql","statement":%q,"parts":%d}`, stmt, parts)
			if code, _, msg := answer(t, srv, stmt, body); code != http.StatusOK {
				t.Fatalf("parts %d: %d %s", parts, code, msg)
			}
		}
	}
	if len(keys) != 4 {
		t.Errorf("%d plan keys over 4 fan-outs", len(keys))
	}
	// Round 0 prepares each fan-out twice before its plan is cached, round 1
	// finds it twice; each plan is cached under its plan key and shape key.
	if c := planStats(t, srv); c.Hits != 8 || c.Misses != 8 || c.Size != 8 {
		t.Errorf("plan cache: %d hits, %d misses, %d entries; want 8, 8 and 8", c.Hits, c.Misses, c.Size)
	}
}

// TestNegativeLimitIs400: LIMIT -5 is refused, even right after LIMIT 5
// prepared its shape.
func TestNegativeLimitIs400(t *testing.T) {
	srv := newPreparedServer(preparedStore(t))
	for _, tc := range []struct {
		stmt string
		want int
	}{
		{"SELECT id FROM events ORDER BY id LIMIT 5", http.StatusOK},
		{"SELECT id FROM events ORDER BY id LIMIT -5", http.StatusBadRequest},
		{"SELECT id FROM events LIMIT -1", http.StatusBadRequest},
	} {
		code, _, msg := answer(t, srv, tc.stmt, fmt.Sprintf(`{"frontend":"sql","statement":%q}`, tc.stmt))
		if code != tc.want || (code != http.StatusOK && !strings.Contains(msg, "LIMIT wants a non-negative number")) {
			t.Errorf("%s: %d %s, want %d", tc.stmt, code, msg, tc.want)
		}
	}
}

// TestStatementCacheConcurrent: goroutines serving one shape with their own
// constants share its plan; each answer is its own statement's.
func TestStatementCacheConcurrent(t *testing.T) {
	srv := newPreparedServer(preparedStore(t))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				id := 50*g + j
				body := fmt.Sprintf(`{"frontend":"sql","statement":"SELECT id, kind FROM events WHERE id = %d"}`, id)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				want := fmt.Sprintf(`"rows":[[%d,%d]]`, id, id%32)
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
					t.Errorf("id %d: %d %s", id, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := planStats(t, srv); c.Hits+c.Misses != 320 || c.Hits < 300 {
		t.Errorf("plan cache: %d hits, %d misses over 320 statements of one shape", c.Hits, c.Misses)
	}
}

// TestOneCacheUnderEviction: SQL and program shape keys and plan keys share
// the plan cache's capacity. At 1, 2 and 3 entries a server cycles through
// two template shapes, the program form of the second, a value-shaped
// statement, the second again, and one shape at parts 1 and 7, sending each
// twice with its constants redrawn. So a shape key outlives its plan key (a
// compile stores the plan key first), and a plan key outlives its shape key
// (the program request, whose program shape key is not the statement's,
// finds the plan under its plan key and maps its own shape key to it, which
// can evict the statement's). Every answer is a fresh server's, and the
// cache never holds more entries than its capacity.
func TestOneCacheUnderEviction(t *testing.T) {
	store := preparedStore(t)
	rng := rand.New(rand.NewSource(61))
	const (
		first  = "SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC, id LIMIT %d"
		second = "SELECT kind, count(*) AS n FROM events WHERE id >= %d GROUP BY kind"
		valued = "SELECT id, value * %d FROM events WHERE id < %d"
		parted = "SELECT kind, sum(value) AS total FROM events WHERE id < %d GROUP BY kind"
	)
	sql := func(stmt string, parts int) string {
		return fmt.Sprintf(`{"frontend":"sql","statement":%q,"parts":%d}`, stmt, parts)
	}
	for _, capacity := range []int{1, 2, 3} {
		cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 5000, PlanCacheSize: capacity}
		srv := polystore.New(polystore.WithRelational("db", store)).Handler(cfg)
		for round := 0; round < 4; round++ {
			for step := 0; step < 7; step++ {
				for i := range 2 {
					var stmt, body string
					switch step {
					case 0:
						stmt = fmt.Sprintf(first, rng.Intn(32), 1+rng.Intn(20))
						body = sql(stmt, 0)
					case 1, 4:
						stmt = fmt.Sprintf(second, rng.Intn(2000))
						body = sql(stmt, 0)
					case 2:
						stmt = fmt.Sprintf(second, rng.Intn(2000))
						body = fmt.Sprintf(`{"frontend":"program","program":[{"id":"q","op":"sql","engine":"db","sql":%q}]}`, stmt)
					case 3: // on odd rounds, value * 3 follows value * 2
						stmt = fmt.Sprintf(valued, 2+i*(round%2), rng.Intn(40))
						body = sql(stmt, 0)
					case 5, 6:
						stmt = fmt.Sprintf(parted, rng.Intn(2000))
						body = sql(stmt, []int{1, 7}[step-5])
					}
					wantCode, want, wantErr := answer(t, newPreparedServer(store), stmt, body)
					code, got, errBody := answer(t, srv, stmt, body)
					if code != http.StatusOK || code != wantCode || errBody != wantErr || !reflect.DeepEqual(got, want) {
						t.Fatalf("capacity %d: %s: %d %+v %s\nfresh: %d %+v %s", capacity, body, code, got, errBody, wantCode, want, wantErr)
					}
					if c := planStats(t, srv); c.Size > capacity {
						t.Fatalf("capacity %d: %d entries", capacity, c.Size)
					}
				}
			}
		}
		if c := planStats(t, srv); c.Hits == 0 {
			t.Errorf("capacity %d: no request found its plan", capacity)
		}
	}
}

// TestShapeKeyRejoinsItsPlan: a SQL statement whose plan is cached under its
// plan key alone — compiled for the program frontend here, which maps its
// own program shape key to it, or left behind by an evicted shape key —
// finds it there and maps its shape key to it, so the next statement of its
// shape skips the parse.
func TestShapeKeyRejoinsItsPlan(t *testing.T) {
	store := preparedStore(t)
	const stmt = "SELECT kind, count(*) AS n FROM events WHERE id >= %d GROUP BY kind"
	statement := func(n int) string { return fmt.Sprintf(`{"frontend":"sql","statement":%q}`, fmt.Sprintf(stmt, n)) }
	program := func(n int) string {
		return fmt.Sprintf(`{"frontend":"program","program":[{"id":"q","op":"sql","engine":"db","sql":%q}]}`, fmt.Sprintf(stmt, n))
	}
	check := func(srv http.Handler, body string, hits, misses int64, size int) {
		t.Helper()
		serve(t, srv, http.MethodPost, "/query", body)
		if c := planStats(t, srv); c.Hits != hits || c.Misses != misses || c.Size != size {
			t.Fatalf("%s: %d hits, %d misses, %d entries; want %d, %d and %d", body, c.Hits, c.Misses, c.Size, hits, misses, size)
		}
	}
	srv := newPreparedServer(store)
	check(srv, program(5), 0, 1, 2)   // its plan key and program shape key
	check(srv, statement(6), 1, 1, 3) // found under the plan key; its shape key joins
	check(srv, statement(7), 2, 1, 3) // found under its shape key

	// At two entries a statement's compile stores its plan key, then its
	// shape key. The program finds the plan under its plan key, which becomes
	// the most recently used, and its program shape key evicts the
	// statement's; the next statement finds the plan under its plan key
	// alone, and its shape key evicts the program's.
	cfg := polystore.ServeConfig{DefaultSQLEngine: "db", MaxRows: 5000, PlanCacheSize: 2}
	srv = polystore.New(polystore.WithRelational("db", store)).Handler(cfg).(*server.Server)
	check(srv, statement(5), 0, 1, 2)
	for i := range 4 {
		check(srv, program(6+i), int64(1+2*i), 1, 2)
		check(srv, statement(6+i), int64(2+2*i), 1, 2)
	}
}
