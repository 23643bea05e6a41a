// End-to-end tests of the serving subsystem through the public facade: a
// real System (clinical engines + accelerator models) behind httptest, so
// requests exercise HTTP decode -> program build -> plan cache -> admission
// -> concurrent Execute -> JSON encode, exactly as cmd/polyserve serves them.
package server_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/server"
)

var clinicalNL = polystore.NLBinding{
	Relational: "db-clinical", Timeseries: "ts-vitals", Text: "txt-notes", ML: "ml",
}

func newTestServer(t *testing.T, cfg polystore.ServeConfig, opts ...testOpt) *httptest.Server {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DefaultSQLEngine == "" {
		cfg.DefaultSQLEngine = "db-clinical"
	}
	if cfg.DefaultTextEngine == "" {
		cfg.DefaultTextEngine = "txt-notes"
	}
	if (cfg.NL == polystore.NLBinding{}) {
		cfg.NL = clinicalNL
	}
	return serveTest(t, cfg, opts, polystore.WithClinical(data),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
}

// testOpt adjusts a test deployment past its ServeConfig: a System option,
// or one of export_test.go's seams on the handler the System builds.
type testOpt struct {
	sys  polystore.Option
	seam func(http.Handler) http.Handler
}

// executeAll turns single-flight off, so every request executes its own plan.
var executeAll = testOpt{seam: server.WithoutSingleFlight}

// pinParts pins the server's partition fan-out at n.
func pinParts(n int) testOpt {
	return testOpt{seam: func(h http.Handler) http.Handler { return server.PinParts(h, n) }}
}

// fanOuts are the partition fan-outs the equivalence suites pin a server at.
var fanOuts = []int{1, 2, 7, 64}

// subplanBytes sizes the System's subplan cache; negative disables it.
func subplanBytes(n int64) testOpt { return testOpt{sys: polystore.WithSubplanCacheBytes(n)} }

// serveTest builds a System from sysOpts and opts, serves its handler for cfg
// with opts' seams applied, and closes it when the test ends.
func serveTest(t testing.TB, cfg polystore.ServeConfig, opts []testOpt, sysOpts ...polystore.Option) *httptest.Server {
	for _, o := range opts {
		if o.sys != nil {
			sysOpts = append(sysOpts, o.sys)
		}
	}
	h := polystore.New(sysOpts...).Handler(cfg)
	for _, o := range opts {
		if o.seam != nil {
			h = o.seam(h)
		}
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// queryResponse is a client's reading of server.QueryResponse: the rows,
// which the server sends pre-encoded, decoded.
type queryResponse struct {
	server.QueryResponse
	Rows [][]any `json:"rows"`
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (int, *queryResponse, string) {
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
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, &qr, string(raw)
}

func TestSQLQueryAndPlanCache(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 5"}`

	code, qr, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if qr.PlanCache != "miss" {
		t.Fatalf("first query plan_cache = %q, want miss", qr.PlanCache)
	}
	if len(qr.Columns) != 2 || qr.Columns[0] != "pid" || qr.Columns[1] != "age" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	if qr.RowCount == 0 || len(qr.Rows) != qr.RowCount {
		t.Fatalf("rows = %d / %d", len(qr.Rows), qr.RowCount)
	}
	if qr.SimLatencySeconds <= 0 {
		t.Fatal("missing simulated latency")
	}

	code, qr, raw = postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, raw)
	}
	if qr.PlanCache != "hit" {
		t.Fatalf("repeat query plan_cache = %q, want hit", qr.PlanCache)
	}
}

// statementErrors are program steps that parse and compile but name something
// the deployment does not have, or ask an operator for what it cannot do: the
// engine finds out at execution, and the client is told 400 all the same.
var statementErrors = []struct{ name, steps string }{
	{"join duplicates a column", `{"id":"q","op":"sql","engine":"db-clinical","sql":"SELECT * FROM patients JOIN admissions ON age = aid"}`},
	{"unknown column", `{"id":"q","op":"sql","engine":"db-clinical","sql":"SELECT nope FROM patients"}`},
	{"unknown table", `{"id":"q","op":"sql","engine":"db-clinical","sql":"SELECT pid FROM ghosts"}`},
	{"type mismatch", `{"id":"q","op":"sql","engine":"db-clinical","sql":"SELECT pid FROM patients WHERE age > 'x'"}`},
	{"operator the engine lacks", `{"id":"q","op":"sql","engine":"ml","sql":"SELECT pid FROM patients"}`},
	{"unknown aggregate", `{"id":"q","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"median"}`},
	{"aggregate other than mean", `{"id":"q","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"max"}`},
	{"non-numeric ml feature", `{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT aid, ward FROM admissions"},
		{"id":"m","op":"train","engine":"ml","input":"a","feature_cols":["ward"],"label_col":"aid"}`},
}

// probeCounts are the /stats counters that tell a read the root probe
// answered from one that executed.
type probeCounts struct {
	Reused     int64 `json:"subplan_plans_reused"`
	Sequential int64 `json:"executor_sequential_plans"`
	Concurrent int64 `json:"executor_concurrent_plans"`
}

func getProbeCounts(t *testing.T, ts *httptest.Server) probeCounts {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c probeCounts
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// postProbed posts body to /query, fails the test unless it answers 200, and
// reports whether the root probe answered it: subplan_plans_reused rose and
// no plan was executed.
func postProbed(t *testing.T, ts *httptest.Server, body string) (bool, *queryResponse) {
	t.Helper()
	before := getProbeCounts(t, ts)
	code, qr, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	after := getProbeCounts(t, ts)
	executed := after.Sequential+after.Concurrent != before.Sequential+before.Concurrent
	return !executed && after.Reused > before.Reused, qr
}

// programBody wraps program steps (comma-separated JSON objects) in a request.
func programBody(steps string) string {
	return `{"frontend":"program","program":[` + steps + `]}`
}

// TestClientErrors: every client mistake answers 400 and counts under
// bad_requests, whether the server finds it while decoding, compiling or
// executing; none counts as an execution error or against the tenant's
// circuit breaker.
func TestClientErrors(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	type clientError struct {
		name string
		body string
		want int
	}
	cases := []clientError{
		{"bad engine", `{"frontend":"sql","engine":"no-such-db","statement":"SELECT pid FROM patients"}`, http.StatusBadRequest},
		{"malformed sql", `{"frontend":"sql","statement":"SELEKT pid FRUM patients"}`, http.StatusBadRequest},
		{"unknown frontend", `{"frontend":"graphql","statement":"{}"}`, http.StatusBadRequest},
		{"missing statement", `{"frontend":"sql"}`, http.StatusBadRequest},
		{"bad json", `{"frontend": `, http.StatusBadRequest},
		{"unknown field", `{"frontend":"sql","statement":"SELECT pid FROM patients","bogus":1}`, http.StatusBadRequest},
		{"priority class", `{"frontend":"sql","statement":"SELECT pid FROM patients","class":"batch"}`, http.StatusBadRequest},
		{"nl no rule", `{"frontend":"nl","statement":"please do something impossible"}`, http.StatusBadRequest},
		{"program empty", `{"frontend":"program","program":[]}`, http.StatusBadRequest},
		{"program bad op", `{"frontend":"program","program":[{"id":"a","op":"teleport","engine":"db-clinical"}]}`, http.StatusBadRequest},
		{"program bad ref", `{"frontend":"program","program":[{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT pid FROM patients"},{"id":"j","op":"join","engine":"db-clinical","left":"a","right":"ghost","left_col":"pid","right_col":"pid"}]}`, http.StatusBadRequest},
		// Operators the program frontend no longer offers.
		{"program stream window", `{"frontend":"program","program":[{"id":"w","op":"streamwindow","engine":"ts-vitals","stream":"icu-events","width":10}]}`, http.StatusBadRequest},
		{"program graph path", `{"frontend":"program","program":[{"id":"p","op":"cypher","engine":"txt-notes","query":"PATH 1 TO 2"}]}`, http.StatusBadRequest},
		{"program single-series window", `{"frontend":"program","program":[{"id":"w","op":"tswindow","engine":"ts-vitals","series":"vitals/0/hr","to":100,"width":10}]}`, http.StatusBadRequest},
	}
	for _, se := range statementErrors {
		cases = append(cases, clientError{se.name, programBody(se.steps), http.StatusBadRequest})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postQuery(t, ts, tc.body)
			if code != tc.want {
				t.Fatalf("status = %d, want %d: %s", code, tc.want, raw)
			}
			if !strings.Contains(raw, "error") {
				t.Fatalf("error body missing: %s", raw)
			}
		})
	}
	// The breaker saw none of them: the same tenant is still served.
	if code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 3"}`); code != http.StatusOK {
		t.Fatalf("healthy request after %d client errors: status %d: %s", len(cases), code, raw)
	}
	var stats struct {
		BadRequests int64 `json:"bad_requests"`
		ExecErrors  int64 `json:"exec_errors"`
		Tenants     map[string]struct {
			Failures int64 `json:"failures"`
		} `json:"tenants"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BadRequests != int64(len(cases)) || stats.ExecErrors != 0 {
		t.Fatalf("bad_requests = %d, exec_errors = %d; want %d and 0", stats.BadRequests, stats.ExecErrors, len(cases))
	}
	// Failures are what the breaker's window counts against the tenant.
	if got := stats.Tenants["anon"].Failures; got != 0 {
		t.Fatalf("anon failures = %d, want 0: a client error fed the breaker", got)
	}

	// GET on /query is a method error.
	mresp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d", mresp.StatusCode)
	}
}

func TestQueueOverflow429(t *testing.T) {
	// Disable the dedup layers: identical in-flight queries would otherwise
	// single-flight into one execution and never overflow the queue.
	// ShedHighWater -1 disables load shedding so overflow exercises the queue
	// bound's 429 path rather than admission's earlier shed 503.
	ts := newTestServer(t, polystore.ServeConfig{
		Workers: 1, QueueDepth: 1, ShedHighWater: -1,
	}, executeAll)
	heavy := `{"frontend":"nl","statement":"predict long stay"}`

	const n = 10
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postQuery(t, ts, heavy)
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429 under overload; status counts: %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under overload; status counts: %v", counts)
	}
}

func TestProgramFrontendCrossEngine(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	// SQL sub-program joined with the timeseries feature summary: two engine
	// kinds in one request, with a migration on the cross-engine edge.
	body := `{"frontend":"program","program":[
		{"id":"p","op":"sql","engine":"db-clinical","sql":"SELECT pid, age FROM patients"},
		{"id":"v","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"mean"},
		{"id":"j","op":"join","engine":"db-clinical","left":"p","right":"v","left_col":"pid","right_col":"vpid"},
		{"id":"s","op":"sort","engine":"db-clinical","input":"j","col":"hr_mean","desc":true}
	]}`
	code, qr, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if qr.RowCount == 0 {
		t.Fatal("cross-engine program returned no rows")
	}
	if qr.Migrations == 0 {
		t.Fatal("cross-engine program reported no migrations")
	}
	found := false
	for _, c := range qr.Columns {
		if c == "hr_mean" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hr_mean column missing: %v", qr.Columns)
	}
}

func TestTextFrontend(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	code, qr, raw := postQuery(t, ts, `{"frontend":"text","statement":"ventilator sedation","k":5}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(qr.Columns) == 0 {
		t.Fatalf("no columns: %s", raw)
	}
}

// TestConcurrentMixedEngines drives >=8 parallel clients across multiple
// engine kinds (relational SQL, text search, timeseries windows, NL counts)
// through one System — the -race acceptance test for the serving path.
func TestConcurrentMixedEngines(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{Workers: 8, QueueDepth: 64})
	bodies := []string{
		`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 40 LIMIT 20"}`,
		`{"frontend":"sql","statement":"SELECT count(*) AS n FROM stays"}`,
		`{"frontend":"text","statement":"icu recovery","k":8}`,
		`{"frontend":"nl","statement":"how many patients are there?"}`,
		`{"frontend":"program","program":[
			{"id":"p","op":"sql","engine":"db-clinical","sql":"SELECT pid, age FROM patients"},
			{"id":"v","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"mean"},
			{"id":"j","op":"join","engine":"db-clinical","left":"p","right":"v","left_col":"pid","right_col":"vpid"}
		]}`,
	}
	const clients = 12
	const perClient = 4
	errs := make(chan string, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				body := bodies[(c+r)%len(bodies)]
				code, _, raw := postQuery(t, ts, body)
				if code != http.StatusOK {
					errs <- raw
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent request failed: %s", e)
	}

	// Repeated identical queries must have been deduplicated by some layer:
	// the subplan cache absorbs repeats after the first execution, single-
	// flight merges simultaneous ones, and the plan cache catches any that
	// still compile.
	var stats struct {
		PlanCacheHits      int64 `json:"plan_cache_hits"`
		SubplanPlansReused int64 `json:"subplan_plans_reused"`
		SingleFlightShared int64 `json:"single_flight_shared"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCacheHits+stats.SubplanPlansReused+stats.SingleFlightShared == 0 {
		t.Fatal("no cache layer recorded hits under repeated concurrent queries")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	// Serve one query so the registry has serving samples.
	if code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status  string   `json:"status"`
		Engines []string `json:"engines"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Engines) < 4 {
		t.Fatalf("healthz = %s", raw)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE server_requests counter",
		"server_requests 1",
		"server_plancache_misses 1",
		"core_nodes",
		"server_request_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestTrailingBodyIs400: a body is one JSON value and whitespace. Data after
// it — junk, or a second object — is a 400 on /query, /query/stream and
// /ingest, and the ingest writes nothing; the well-formed bodies beside them
// answer 200, trailing whitespace included.
func TestTrailingBodyIs400(t *testing.T) {
	srv := newPreparedServer(preparedStore(t))
	const (
		query  = `{"frontend":"sql","statement":"SELECT count(*) AS n FROM events WHERE id = 5000"}`
		ingest = `{"engine":"db","table":"events","row":[5000,1,2.5]}`
	)
	for _, tc := range []struct{ path, body string }{
		{"/query", query}, {"/query/stream", query}, {"/ingest", ingest},
	} {
		for _, tail := range []string{" trailing", `{"frontend":"bogus"}`, "}", "\n[]"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body+tail)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body: ") {
				t.Errorf("%s %q: %d %s, want 400 bad request body", tc.path, tc.body+tail, rec.Code, rec.Body)
			}
		}
		if tc.path != "/ingest" {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body+" \n\t")))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "[0]") {
				t.Errorf("%s with trailing whitespace: %d %s, want 200 and no row 5000", tc.path, rec.Code, rec.Body)
			}
		}
	}
	serve(t, srv, http.MethodPost, "/ingest", ingest+"\n")
	if got := serve(t, srv, http.MethodPost, "/query", query); !strings.Contains(string(got), `"rows":[[1]]`) {
		t.Errorf("after one well-formed ingest: %s", got)
	}
}

// TestBodyOverLimitIs413: every request body is bounded at 1 MiB. A body of
// exactly 1 MiB is read (here a well-formed one padded with whitespace
// answers 200); one byte more is a 413 on /query, /query/stream and /ingest
// — whether the JSON value or its trailing whitespace crosses the bound —
// counted under bad_requests, and the ingest writes nothing.
func TestBodyOverLimitIs413(t *testing.T) {
	srv := newPreparedServer(preparedStore(t))
	const (
		query  = `{"frontend":"sql","statement":"SELECT count(*) AS n FROM events WHERE id = 5000`
		ingest = `{"engine":"db","table":"events","row":[5000,1,2.5],"key":"`
		limit  = 1 << 20
	)
	// inValue pads the last string of prefix to n bytes of body; trailing
	// closes prefix and pads with whitespace.
	inValue := func(prefix, closing string, n int) string {
		return prefix + strings.Repeat(" ", n-len(prefix)-len(closing)) + closing
	}
	trailing := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	bad := func() int64 {
		var stats struct {
			BadRequests int64 `json:"bad_requests"`
		}
		if err := json.Unmarshal(serve(t, srv, http.MethodGet, "/stats", ""), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.BadRequests
	}
	before := bad()
	over := 0
	for _, tc := range []struct{ path, prefix, closing string }{
		{"/query", query, `"}`}, {"/query/stream", query, `"}`}, {"/ingest", ingest, `"}`},
	} {
		for _, body := range []string{inValue(tc.prefix, tc.closing, limit+1), trailing(tc.prefix+tc.closing, limit+1)} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
				t.Errorf("%s, %d-byte body: %d %s, want 413", tc.path, len(body), rec.Code, rec.Body)
			}
			over++
		}
		if tc.path != "/ingest" {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(trailing(tc.prefix+tc.closing, limit))))
			if rec.Code != http.StatusOK {
				t.Errorf("%s, a body of exactly 1 MiB: %d %s, want 200", tc.path, rec.Code, rec.Body)
			}
		}
	}
	if got := bad() - before; got != int64(over) {
		t.Errorf("bad_requests grew by %d over %d oversized bodies", got, over)
	}
	if got := serve(t, srv, http.MethodPost, "/query", query+`"}`); !strings.Contains(string(got), `"rows":[[0]]`) {
		t.Errorf("an oversized ingest wrote a row: %s", got)
	}
}
