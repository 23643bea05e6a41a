// Tests of POST /query/stream: NDJSON wire shape, streamed-vs-buffered
// equivalence (property-style, across partition fan-outs), the same HTTP
// status as /query for every execution failure, in-band error records for
// what fails after the first record, and a worker slot that no client's
// read cadence can hold.
package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// ndLine is the union of every NDJSON record shape the stream emits.
type ndLine struct {
	Type    string   `json:"type"`
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	Rows    [][]any  `json:"rows"`
	Error   string   `json:"error"`
	Status  int      `json:"status"`
	// Summary fields (subset of QueryResponse).
	RowCount     int    `json:"row_count"`
	Truncated    bool   `json:"truncated"`
	Model        bool   `json:"model"`
	PlanCache    string `json:"plan_cache"`
	SingleFlight bool   `json:"single_flight"`
}

// newStreamTestServer builds the clinical system plus two synthetic tables:
// "points" (10k rows; x = 1 everywhere except row 5000 where x = 0 — the
// deterministic mid-stream division-by-zero trigger) and "dup" (100 rows,
// dkey = 1, a join amplifier).
func newStreamTestServer(t *testing.T, cfg polystore.ServeConfig, opts ...testOpt) *httptest.Server {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	addStreamTables(t, data.Relational)
	if cfg.DefaultSQLEngine == "" {
		cfg.DefaultSQLEngine = "db-clinical"
	}
	if cfg.DefaultTextEngine == "" {
		cfg.DefaultTextEngine = "txt-notes"
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = 1 << 21
	}
	return serveTest(t, cfg, opts,
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	)
}

func addStreamTables(t *testing.T, store *relational.Store) {
	t.Helper()
	points, err := store.CreateTable("points", cast.MustSchema(
		cast.Column{Name: "k", Type: cast.Int64},
		cast.Column{Name: "x", Type: cast.Int64},
		cast.Column{Name: "val", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	b := cast.NewBatch(points.Schema(), 10000)
	for i := 0; i < 10000; i++ {
		x := int64(1)
		if i == 5000 {
			x = 0
		}
		if err := b.AppendRow(int64(i), x, float64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if err := points.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	dup, err := store.CreateTable("dup", cast.MustSchema(cast.Column{Name: "dkey", Type: cast.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := dup.Insert(int64(1)); err != nil {
			t.Fatal(err)
		}
	}
}

// postStream fires one streaming request and parses every NDJSON line.
func postStream(t *testing.T, ts *httptest.Server, body string) (int, []ndLine, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []ndLine
	if resp.StatusCode == http.StatusOK {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		for dec.More() {
			var l ndLine
			if err := dec.Decode(&l); err != nil {
				t.Fatalf("bad NDJSON line: %v\n%s", err, raw)
			}
			lines = append(lines, l)
		}
	}
	return resp.StatusCode, lines, string(raw)
}

// splitStream validates the record grammar — schema? batch* (summary|error)
// — and returns the parts.
func splitStream(t *testing.T, lines []ndLine) (schema *ndLine, batches []ndLine, terminal *ndLine) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if last.Type != "summary" && last.Type != "error" {
		t.Fatalf("stream does not end in summary/error: %+v", last)
	}
	terminal = &last
	body := lines[:len(lines)-1]
	if len(body) > 0 && body[0].Type == "schema" {
		schema = &body[0]
		body = body[1:]
	}
	for i := range body {
		if body[i].Type != "batch" {
			t.Fatalf("unexpected record %d: %+v", i, body[i])
		}
		batches = append(batches, body[i])
	}
	return schema, batches, terminal
}

// concatRows glues the batch records back together.
func concatRows(batches []ndLine) [][]any {
	var out [][]any
	for _, b := range batches {
		out = append(out, b.Rows...)
	}
	return out
}

// assertStreamEqualsBuffered runs the same body on both endpoints and pins
// the tentpole invariant: the streamed batches concatenate to exactly the
// buffered /query result.
func assertStreamEqualsBuffered(t *testing.T, ts *httptest.Server, body string) {
	t.Helper()
	code, qr, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("/query status %d: %s", code, raw)
	}
	scode, lines, sraw := postStream(t, ts, body)
	if scode != http.StatusOK {
		t.Fatalf("/query/stream status %d: %s", scode, sraw)
	}
	schema, batches, terminal := splitStream(t, lines)
	if terminal.Type != "summary" {
		t.Fatalf("stream failed: %+v", terminal)
	}
	if len(qr.Columns) > 0 {
		if schema == nil {
			t.Fatalf("no schema record but buffered has columns %v", qr.Columns)
		}
		if !reflect.DeepEqual(schema.Columns, qr.Columns) {
			t.Fatalf("schema columns %v != buffered %v", schema.Columns, qr.Columns)
		}
	}
	got := concatRows(batches)
	if len(got) != len(qr.Rows) {
		t.Fatalf("streamed %d rows, buffered %d\nbody: %s", len(got), len(qr.Rows), body)
	}
	if len(got) > 0 && !reflect.DeepEqual(got, qr.Rows) {
		t.Fatalf("streamed rows differ from buffered rows\nbody: %s", body)
	}
	if terminal.RowCount != qr.RowCount || terminal.Truncated != qr.Truncated || terminal.Model != qr.Model {
		t.Fatalf("summary (count=%d trunc=%v model=%v) != buffered (count=%d trunc=%v model=%v)",
			terminal.RowCount, terminal.Truncated, terminal.Model, qr.RowCount, qr.Truncated, qr.Model)
	}
}

func TestStreamBasicShape(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	code, lines, raw := postStream(t, ts, `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 40"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	schema, batches, terminal := splitStream(t, lines)
	if schema == nil || len(schema.Columns) != 2 || schema.Columns[0] != "pid" {
		t.Fatalf("schema record = %+v", schema)
	}
	if !reflect.DeepEqual(schema.Types, []string{"int64", "int64"}) {
		t.Fatalf("schema types = %v", schema.Types)
	}
	if len(batches) == 0 {
		t.Fatal("no batch records")
	}
	if terminal.Type != "summary" || terminal.RowCount != len(concatRows(batches)) {
		t.Fatalf("summary = %+v", terminal)
	}
	if terminal.PlanCache == "" {
		t.Fatal("summary missing serving metadata")
	}
}

// TestStreamLargeScanManyBatches: a 10k-row scan crosses the wire in
// multiple flushed batches, not one blob.
func TestStreamLargeScanManyBatches(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	code, lines, raw := postStream(t, ts, `{"frontend":"sql","statement":"SELECT * FROM points"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	_, batches, terminal := splitStream(t, lines)
	if terminal.Type != "summary" || terminal.RowCount != 10000 {
		t.Fatalf("terminal = %+v", terminal)
	}
	if len(batches) < 5 {
		t.Fatalf("10k-row scan arrived in %d batches, want several", len(batches))
	}
	if rows := concatRows(batches); len(rows) != 10000 {
		t.Fatalf("streamed %d rows", len(rows))
	}
}

// TestStreamEquivalenceProperty is the property-style suite: generated
// random plans (filter / project / group-by / join / window over the
// datagen clinical data) must stream to exactly the buffered result on
// servers pinned at partition fan-outs 1, 2, 7 and 64. The buffered
// request executes; the stream is answered whole from the subplan cache the
// execution filled when its plan has a whole-plan candidate, and executes
// again when it has none.
func TestStreamEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bodies := randomQueryBodies(rng, 12)
	for _, parts := range fanOuts {
		ts := newStreamTestServer(t, polystore.ServeConfig{Workers: 8, QueueDepth: 256}, executeAll, pinParts(parts))
		for i, body := range bodies {
			t.Run(fmt.Sprintf("q%d_parts%d", i, parts), func(t *testing.T) {
				assertStreamEqualsBuffered(t, ts, body)
			})
		}
	}
}

// randomQueryBodies generates request bodies. Statements are assembled from
// random tables, columns, predicates and aggregates so the suite covers plan
// shapes, not one query.
func randomQueryBodies(rng *rand.Rand, n int) []string {
	intCols := map[string][]string{
		"patients":   {"pid", "age", "gender_male", "prior_visits"},
		"admissions": {"aid", "pid"},
		"stays":      {"sid", "pid", "procedures", "long_stay"},
	}
	tables := []string{"patients", "admissions", "stays"}
	sqlBody := func(stmt string) string {
		return fmt.Sprintf(`{"frontend":"sql","statement":"%s","max_rows":100000}`, stmt)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		switch rng.Intn(6) {
		case 0: // filtered scan
			tb := tables[rng.Intn(len(tables))]
			col := intCols[tb][rng.Intn(len(intCols[tb]))]
			out = append(out, sqlBody(fmt.Sprintf("SELECT * FROM %s WHERE %s > %d", tb, col, rng.Intn(60))))
		case 1: // projection with expression
			tb := tables[rng.Intn(len(tables))]
			cols := intCols[tb]
			a, b := cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))]
			out = append(out, sqlBody(fmt.Sprintf("SELECT %s, %s + %d AS adj FROM %s", a, b, rng.Intn(10), tb)))
		case 2: // group-by with aggregates
			out = append(out, sqlBody(fmt.Sprintf(
				"SELECT ward, count(*) AS n, min(pid) AS lo, max(pid) AS hi FROM admissions WHERE aid > %d GROUP BY ward", rng.Intn(50))))
		case 3: // join + filter + order (points/dup have disjoint columns)
			out = append(out, sqlBody(fmt.Sprintf(
				"SELECT k, dkey FROM points JOIN dup ON x = dkey WHERE k > %d ORDER BY k", 9800+rng.Intn(150))))
		case 4: // order + limit (streaming planner path)
			tb := tables[rng.Intn(len(tables))]
			col := intCols[tb][rng.Intn(len(intCols[tb]))]
			out = append(out, sqlBody(fmt.Sprintf("SELECT * FROM %s ORDER BY %s DESC LIMIT %d", tb, col, 1+rng.Intn(200))))
		case 5: // vitals summary joined with a patient filter through the program frontend
			out = append(out, fmt.Sprintf(
				`{"frontend":"program","max_rows":100000,"program":[{"id":"w","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"mean"},{"id":"p","op":"sql","engine":"db-clinical","sql":"SELECT pid, age FROM patients WHERE age > %d"},{"id":"j","op":"join","engine":"db-clinical","left":"p","right":"w","left_col":"pid","right_col":"vpid"}]}`,
				20+rng.Intn(60)))
		}
	}
	return out
}

// TestStreamReplayFromProbe: a stream the root probe answers replays the
// cached batch — it looks identical to a live one, and no plan executes.
func TestStreamReplayFromProbe(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT k, val FROM points WHERE k < 3000"}`
	// Prime with a buffered request, then stream the same key.
	if code, _, raw := postQuery(t, ts, body); code != http.StatusOK {
		t.Fatalf("prime status %d: %s", code, raw)
	}
	before := getProbeCounts(t, ts)
	code, lines, raw := postStream(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if after := getProbeCounts(t, ts); after.Reused != before.Reused+1 || after.Sequential+after.Concurrent != before.Sequential+before.Concurrent {
		t.Fatalf("stream of a primed read: /stats %+v -> %+v, want one plan reused and none executed", before, after)
	}
	_, batches, terminal := splitStream(t, lines)
	if terminal.Type != "summary" {
		t.Fatalf("terminal = %+v, want a summary", terminal)
	}
	if rows := concatRows(batches); len(rows) != 3000 {
		t.Fatalf("replayed %d rows", len(rows))
	}
	// And the replay still equals a fresh buffered response.
	assertStreamEqualsBuffered(t, ts, body)
}

// TestStreamModelResult: a model-valued sink streams no batches — just the
// summary with model set, like the buffered response.
func TestStreamModelResult(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"program","program":[
		{"id":"src","op":"sql","engine":"db-clinical","sql":"SELECT age, prior_visits, gender_male FROM patients"},
		{"id":"t","op":"train","engine":"ml","input":"src","feature_cols":["age","prior_visits"],"label_col":"gender_male","epochs":1}
	]}`
	code, lines, raw := postStream(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	schema, batches, terminal := splitStream(t, lines)
	if schema != nil || len(batches) != 0 {
		t.Fatalf("model stream carried tabular records: schema=%v batches=%d", schema, len(batches))
	}
	if terminal.Type != "summary" || !terminal.Model {
		t.Fatalf("terminal = %+v", terminal)
	}
}

// TestStreamMidStreamErrorInBand: a program whose first sink succeeds and
// whose second divides by x, which is 0 on row 5000, answers a plain 500 on
// both endpoints: the stream writes nothing before the execution has
// finished, so no row of the first sink precedes the failure. A failure of
// the single sink itself answers the same.
func TestStreamMidStreamErrorInBand(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	twoSink := programBody(`{"id":"first","op":"sql","engine":"db-clinical","sql":"SELECT k FROM points"},
		{"id":"second","op":"sql","engine":"db-clinical","sql":"SELECT k, 10 / x AS y FROM points"}`)
	const single = `{"frontend":"sql","statement":"SELECT k, 10 / x AS y FROM points"}`
	for _, body := range []string{twoSink, single} {
		if scode, _, sraw := postStream(t, ts, body); scode != http.StatusInternalServerError || !strings.Contains(sraw, "division by zero") {
			t.Fatalf("/query/stream status = %d: %s", scode, sraw)
		}
		if bcode, _, braw := postQuery(t, ts, body); bcode != http.StatusInternalServerError {
			t.Fatalf("/query status = %d: %s", bcode, braw)
		}
	}
}

// TestStreamLiveEqualsReplay: a stream the root probe answers from the
// subplan cache is byte-identical to the live one up to the summary record
// (whose wall_us differs). The filter keeps a tenth of the rows of every
// 1024-row input chunk, so a stream cut per input chunk would differ from
// one cut from the finished result.
func TestStreamLiveEqualsReplay(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT * FROM points WHERE val < 10"}`
	records := func(wantExecuted bool) string {
		t.Helper()
		before := getProbeCounts(t, ts)
		code, lines, raw := postStream(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		after := getProbeCounts(t, ts)
		if executed := after.Sequential+after.Concurrent != before.Sequential+before.Concurrent; executed != wantExecuted {
			t.Fatalf("stream executed %t, want %t", executed, wantExecuted)
		}
		if _, _, terminal := splitStream(t, lines); terminal.Type != "summary" {
			t.Fatalf("terminal = %+v, want a summary", terminal)
		}
		return raw[:strings.LastIndex(strings.TrimSuffix(raw, "\n"), "\n")+1]
	}
	live := records(true)
	if replayed := records(false); replayed != live {
		t.Fatalf("replay differs from the live stream: %d bytes live, %d replayed", len(live), len(replayed))
	}
}

// TestFilterDivisionBehindGuard: AND hands its right side only the rows its
// left side keeps. A zero divisor on a row the guard admits still fails the
// statement — 500, a data-caused failure — and one the guard excludes is
// never evaluated.
func TestFilterDivisionBehindGuard(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT k FROM points WHERE k < 5 AND 10 / (k - 2) > 1"}`)
	if code != http.StatusInternalServerError || !strings.Contains(raw, "division by zero") {
		t.Fatalf("row 2 divides by zero behind a guard that admits it: status %d: %s", code, raw)
	}
	code, resp, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT k FROM points WHERE k > 5 AND k < 10 AND 10 / (k - 2) > 1"}`)
	// 10/(k-2) is 2, 2, 1, 1 for k = 6..9: the rows above 1 are 6 and 7.
	if code != http.StatusOK || resp.RowCount != 2 {
		t.Fatalf("a guard that excludes the zero divisor: status %d, %d rows: %s", code, resp.RowCount, raw)
	}
}

// TestNonFiniteFloatFailsLoudly: JSON cannot carry ±Inf or NaN, so a result
// holding one fails the request where the client can see it — /query with a
// 500 and its reason, /query/stream with a terminal in-band 500 record —
// whether the rows were just computed or are replayed from the subplan
// cache. Neither is a client that went away: nothing may count as a stream
// abort.
func TestNonFiniteFloatFailsLoudly(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	counters := func() (execErrors, inband, executed int64) {
		t.Helper()
		var st struct {
			ExecErrors int64 `json:"exec_errors"`
			Inband     int64 `json:"stream_errors_inband"`
			Sequential int64 `json:"executor_sequential_plans"`
			Concurrent int64 `json:"executor_concurrent_plans"`
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.ExecErrors, st.Inband, st.Sequential + st.Concurrent
	}
	inf := `{"frontend":"sql","statement":"SELECT k, val * 1e308 * 1e308 AS y FROM points WHERE k > 0 LIMIT 2"}`
	nan := `{"frontend":"sql","statement":"SELECT k, val * 1e308 * 1e308 - val * 1e308 * 1e308 AS y FROM points WHERE k > 0 LIMIT 2"}`

	// Buffered: computed, then replayed from the subplan cache (the result
	// itself is sound and is cached; it is its JSON rendering that fails).
	for i := range 2 {
		code, _, raw := postQuery(t, ts, inf)
		if code != http.StatusInternalServerError || !strings.Contains(raw, `"error":"encode results: `) || !strings.Contains(raw, "+Inf") {
			t.Fatalf("/query #%d: status %d, body %q", i, code, raw)
		}
		if execErrors, _, executed := counters(); execErrors != int64(i+1) || executed != 1 {
			t.Fatalf("/query #%d: exec_errors=%d, %d plans executed; want %d and 1", i, execErrors, executed, i+1)
		}
	}
	// Streamed: a replay of that cached result, then a live execution of
	// another statement.
	for i, body := range []string{inf, nan} {
		code, lines, raw := postStream(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("/query/stream #%d: status %d: %s", i, code, raw)
		}
		schema, batches, terminal := splitStream(t, lines)
		if schema == nil || len(batches) != 0 || terminal.Type != "error" ||
			terminal.Status != http.StatusInternalServerError || !strings.Contains(terminal.Error, "encode results: ") {
			t.Fatalf("/query/stream #%d: want schema then a terminal 500 error record, got\n%s", i, raw)
		}
		if _, inband, executed := counters(); inband != int64(i+1) || executed != int64(i+1) {
			t.Fatalf("/query/stream #%d: stream_errors_inband=%d, %d plans executed", i, inband, executed)
		}
	}
	if execErrors, _, _ := counters(); execErrors != 4 {
		t.Fatalf("exec_errors = %d after four failed encodes", execErrors)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if prom, _ := io.ReadAll(resp.Body); !strings.Contains(string(prom), "\nserver_stream_aborted 0\n") {
		t.Fatal("a failed encode was counted as a client that stopped reading (server_stream_aborted != 0)")
	}
}

// TestStreamDeadlineMidStream: a program whose fast sink is ready long
// before its slow ML sink finishes training answers the deadline with a
// plain 504 on both endpoints — the stream waits for the whole outcome.
func TestStreamDeadlineMidStream(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"program","timeout_ms":600,"program":[
		{"id":"big","op":"sql","engine":"db-clinical","sql":"SELECT * FROM points"},
		{"id":"src","op":"sql","engine":"db-clinical","sql":"SELECT k, x, val FROM points"},
		{"id":"t","op":"train","engine":"ml","input":"src","feature_cols":["k","x"],"label_col":"val","epochs":100000,"hidden":32}
	]}`
	if code, _, raw := postStream(t, ts, body); code != http.StatusGatewayTimeout {
		t.Fatalf("/query/stream status %d, want 504: %s", code, raw)
	}
	if code, _, raw := postQuery(t, ts, body); code != http.StatusGatewayTimeout {
		t.Fatalf("/query status %d, want 504: %s", code, raw)
	}
}

// TestStreamClientDisconnectFreesWorker: dropping the connection mid-stream
// must release the admission slot promptly and leak no goroutines (the
// goleak-style count check).
func TestStreamClientDisconnectFreesWorker(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{Workers: 4, QueueDepth: 16}, executeAll)
	// Warm up (connection pools, lazily started runtime goroutines).
	if code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT count(*) AS n FROM points"}`); code != http.StatusOK {
		t.Fatalf("warmup: %d %s", code, raw)
	}
	before := runtime.NumGoroutine()

	// A join-amplified stream (~1M rows) cannot fit any socket buffer, so
	// the handler is genuinely mid-write when the client walks away.
	body := `{"frontend":"sql","statement":"SELECT k, dkey FROM points JOIN dup ON x = dkey","max_rows":2000000}`
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query/stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one line of partial results, then vanish.
		if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
			t.Fatalf("first line: %v", err)
		}
		cancel()
		resp.Body.Close()
	}

	// The slots and goroutines must drain without waiting for the full
	// result to be produced.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Inflight     int64 `json:"inflight"`
			ErrorsInband int64 `json:"stream_errors_inband"`
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		if stats.Inflight == 0 && goroutines <= before+8 {
			// Disconnects are aborts, not query failures: the in-band error
			// counter must not report failures that never happened.
			if stats.ErrorsInband != 0 {
				t.Fatalf("client disconnects counted as in-band errors: %d", stats.ErrorsInband)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers/goroutines not released: inflight=%d goroutines=%d (baseline %d)",
				stats.Inflight, goroutines, before)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestStreamStalledReaderHoldsNoWorker: a stream is written after its
// execution has released the worker slot, so a client that reads one line
// of a large result and then stops reading holds no worker: with the only
// one free, a cold /query behind it is admitted rather than shed.
func TestStreamStalledReaderHoldsNoWorker(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{Workers: 1, QueueDepth: -1}, executeAll)
	// About 1M joined rows: far more than any socket buffer holds, so the
	// server's writes block on the stalled reader.
	body := `{"frontend":"sql","statement":"SELECT k, dkey FROM points JOIN dup ON x = dkey","max_rows":2000000}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT count(*) AS n FROM points WHERE k > 3"}`)
	if code != http.StatusOK {
		t.Fatalf("cold /query behind a stalled stream: status %d, want 200: %s", code, raw)
	}
}

// TestStreamRequestErrorsKeepStatusCodes: a request that fails before it has
// an outcome gets the plain HTTP status /query gives it.
func TestStreamRequestErrorsKeepStatusCodes(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"bad json":       {`{"frontend": `, http.StatusBadRequest},
		"bad sql":        {`{"frontend":"sql","statement":"SELEKT"}`, http.StatusBadRequest},
		"unknown engine": {`{"frontend":"sql","engine":"ghost","statement":"SELECT k FROM points"}`, http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			code, _, raw := postStream(t, ts, tc.body)
			if code != tc.want {
				t.Fatalf("status = %d, want %d: %s", code, tc.want, raw)
			}
		})
	}
	for _, se := range statementErrors {
		t.Run(se.name, func(t *testing.T) {
			if code, _, raw := postStream(t, ts, programBody(se.steps)); code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", code, raw)
			}
		})
		// The same mistake in a program's second step, behind a first sink
		// that succeeds: the stream answers the same plain status as /query.
		// (The subtest is named for the in-band error record this failure
		// rode while a stream wrote its first sink during execution.)
		t.Run(se.name+" in band", func(t *testing.T) {
			const first = `{"id":"first","op":"sql","engine":"db-clinical","sql":"SELECT k FROM points"},`
			body := programBody(first + se.steps)
			code, _, raw := postStream(t, ts, body)
			bcode, _, braw := postQuery(t, ts, body)
			if code != http.StatusBadRequest || bcode != http.StatusBadRequest {
				t.Fatalf("/query/stream status %d, /query %d, want 400 on both: %s | %s", code, bcode, raw, braw)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/query/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

// TestStreamMaxRowsTruncation: the row cap clamps the wire rows while the
// summary keeps the true count — mirroring the buffered truncation contract.
func TestStreamMaxRowsTruncation(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := `{"frontend":"sql","statement":"SELECT * FROM points","max_rows":1500}`
	code, lines, raw := postStream(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	_, batches, terminal := splitStream(t, lines)
	if rows := concatRows(batches); len(rows) != 1500 {
		t.Fatalf("wire rows = %d, want 1500", len(rows))
	}
	if terminal.RowCount != 10000 || !terminal.Truncated {
		t.Fatalf("summary = %+v", terminal)
	}
	assertStreamEqualsBuffered(t, ts, body)
}
