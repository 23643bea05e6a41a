package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// fullClinicalServer serves every engine of a small clinical deployment —
// relational, timeseries, text and ML — with the nl frontend bound to them.
func fullClinicalServer(t testing.TB) *Server {
	t.Helper()
	data := clinicalData(t)
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational(data.Relational.Name(), relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewTimeseries(data.Timeseries.Name(), data.Timeseries))
	rt.Register(adapter.NewText(data.Text.Name(), data.Text))
	rt.Register(adapter.NewML(datagen.MLEngine, 1))
	return New(rt, compiler.Options{Level: 3, Accel: true}, Config{
		DefaultSQLEngine:  data.Relational.Name(),
		DefaultTextEngine: data.Text.Name(),
		NL:                data.Binding(),
	})
}

// serveOn answers body on path through the server's handler.
func serveOn(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// probeCount reads the /stats counters that tell a read the root probe
// answered from one that executed.
func probeCount(t testing.TB, s *Server) (reused, executed int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var c struct {
		Reused     int64 `json:"subplan_plans_reused"`
		Sequential int64 `json:"executor_sequential_plans"`
		Concurrent int64 `json:"executor_concurrent_plans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	return c.Reused, c.Sequential + c.Concurrent
}

// withoutTimings is a JSON body with every host-time field ("wall_us" and a
// trace's "*_us" and "started_at") taken out, re-encoded.
func withoutTimings(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if strings.HasSuffix(k, "_us") || k == "started_at" {
					delete(v, k)
					continue
				}
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// withoutStreamTimings is withoutTimings over each NDJSON record.
func withoutStreamTimings(t *testing.T, body []byte) string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		out = append(out, withoutTimings(t, line))
	}
	return strings.Join(out, "\n")
}

const hitStatement = `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 30 ORDER BY age DESC LIMIT 5"}`

// TestRootProbeHitUnderExpiredDeadline: nothing a read the root probe
// answers passes through checks a deadline — only plan nodes that run do —
// so a repeat whose deadline has passed before it is served (the server's
// cap lowered to a nanosecond, timeout_ms 1) still answers 200, with the body
// a repeat under the default deadline gets.
func TestRootProbeHitUnderExpiredDeadline(t *testing.T) {
	s := fullClinicalServer(t)
	if rec := serveOn(s, "/query", hitStatement); rec.Code != http.StatusOK {
		t.Fatalf("first read: %d %s", rec.Code, rec.Body)
	}
	want := serveOn(s, "/query", hitStatement)
	if want.Code != http.StatusOK {
		t.Fatalf("repeat: %d %s", want.Code, want.Body)
	}
	s.maxTimeout = time.Nanosecond
	reused, executed := probeCount(t, s)
	body := strings.Replace(hitStatement, "{", `{"timeout_ms":1,`, 1)
	got := serveOn(s, "/query", body)
	if got.Code != http.StatusOK {
		t.Fatalf("a root-probe hit past its deadline answered %d: %s", got.Code, got.Body)
	}
	if r, e := probeCount(t, s); r != reused+1 || e != executed {
		t.Fatalf("the repeat was not a root-probe hit: reused %d -> %d, executed %d -> %d", reused, r, executed, e)
	}
	if g, w := withoutTimings(t, got.Body.Bytes()), withoutTimings(t, want.Body.Bytes()); g != w {
		t.Fatalf("past its deadline the hit answers\n %s\nwant\n %s", g, w)
	}
}

// TestRootProbeMissPastDeadlineIs504: a read of a compiled shape whose root
// probe misses executes under its deadline; past it, the answer is 504,
// counted under deadline_exceeded.
func TestRootProbeMissPastDeadlineIs504(t *testing.T) {
	s := fullClinicalServer(t)
	if rec := serveOn(s, "/query", hitStatement); rec.Code != http.StatusOK {
		t.Fatalf("first read: %d %s", rec.Code, rec.Body)
	}
	s.maxTimeout = time.Nanosecond
	hits, deadlines := s.st.planHits.Value(), s.st.deadline.Value()
	rec := serveOn(s, "/query", strings.Replace(hitStatement, "age > 30", "age > 31", 1))
	if want := `{"error":"deadline exceeded after 1ns"}` + "\n"; rec.Code != http.StatusGatewayTimeout || rec.Body.String() != want {
		t.Fatalf("a root-probe miss past its deadline answered %d %q, want 504 %q", rec.Code, rec.Body, want)
	}
	if s.st.planHits.Value() != hits+1 {
		t.Fatal("the statement was not prepared from its compiled shape: the root probe never ran")
	}
	if s.st.deadline.Value() != deadlines+1 {
		t.Fatal("the 504 was not counted under deadline_exceeded")
	}
}

// TestStreamRootProbeHitReadsDeadline: a /query/stream read the root probe
// answers is delivered under the request's deadline, which the record
// cutter reads between records: past it, the schema record is followed by
// the in-band 504.
func TestStreamRootProbeHitReadsDeadline(t *testing.T) {
	s := fullClinicalServer(t)
	for range 2 {
		if rec := serveOn(s, "/query", hitStatement); rec.Code != http.StatusOK {
			t.Fatalf("warm-up read: %d %s", rec.Code, rec.Body)
		}
	}
	s.maxTimeout = time.Nanosecond
	reused, executed := probeCount(t, s)
	rec := serveOn(s, "/query/stream", hitStatement)
	if r, e := probeCount(t, s); r != reused+1 || e != executed {
		t.Fatalf("the stream was not a root-probe hit: reused %d -> %d, executed %d -> %d", reused, r, executed, e)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	const want = `{"type":"error","error":"deadline exceeded after 1ns","status":504}`
	if rec.Code != http.StatusOK || len(lines) != 2 || !strings.HasPrefix(lines[0], `{"type":"schema"`) || lines[1] != want {
		t.Fatalf("status %d, records %q, want the schema then %s", rec.Code, lines, want)
	}
}

// TestTrainSinkServedFromRootProbe: a program whose sink is train answers
// "model": true; its repeat is answered whole by the root probe, its model
// served from the subplan cache, and carries the same body, host times and
// the plan-cache outcome aside.
func TestTrainSinkServedFromRootProbe(t *testing.T) {
	s := fullClinicalServer(t)
	body := hygieneProgram(`{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT age, prior_visits, gender_male FROM patients"},
		{"id":"m","op":"train","engine":"ml","input":"a","feature_cols":["age","prior_visits"],"label_col":"gender_male","hidden":4,"epochs":2}`)
	cold := serveOn(s, "/query", body)
	if cold.Code != http.StatusOK || !strings.Contains(cold.Body.String(), `"model":true`) {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	reused, executed := probeCount(t, s)
	warm := serveOn(s, "/query", body)
	if r, e := probeCount(t, s); warm.Code != http.StatusOK || r != reused+1 || e != executed {
		t.Fatalf("the repeat (%d) was not a root-probe hit: reused %d -> %d, executed %d -> %d", warm.Code, reused, r, executed, e)
	}
	want := strings.Replace(withoutTimings(t, cold.Body.Bytes()), `"plan_cache":"miss"`, `"plan_cache":"hit"`, 1)
	if got := withoutTimings(t, warm.Body.Bytes()); got != want {
		t.Fatalf("from the root probe\n %s\ncold\n %s", got, want)
	}
}

// hygieneProgram wraps program steps (comma-separated JSON objects) in a
// request.
func hygieneProgram(steps string) string {
	return `{"frontend":"program","program":[` + steps + `]}`
}

// hygieneCorpus is one body of every frontend and of every kind of answer:
// rows, a model, rows past the cap, no rows, a traced read.
var hygieneCorpus = []string{
	hitStatement,
	`{"frontend":"sql","statement":"SELECT pid, age, gender_male, prior_visits FROM patients WHERE age > 20","max_rows":3}`,
	`{"frontend":"sql","statement":"SELECT pid FROM patients WHERE age > 1000"}`,
	`{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients","trace":true}`,
	`{"frontend":"nl","statement":"how many patients are there?"}`,
	`{"frontend":"text","statement":"sedation","k":3}`,
	hygieneProgram(`{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT age, prior_visits, gender_male FROM patients"},
		{"id":"m","op":"train","engine":"ml","input":"a","feature_cols":["age","prior_visits"],"label_col":"gender_male","hidden":4,"epochs":1}`),
	hygieneProgram(`{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT pid, age FROM patients WHERE age > 50"},
		{"id":"s","op":"sort","engine":"db-clinical","input":"a","col":"age","desc":true}`),
}

// TestPreambleResponseHygiene: the pooled preamble a request is answered
// from encodes, on both endpoints, the bytes a fresh one does — host times
// aside — over a corpus of every frontend and every kind of answer, served
// cold, then from the plan cache and the root probe; and after its release
// the preamble holds no bind, no bound plan and no response.
func TestPreambleResponseHygiene(t *testing.T) {
	fresh, pooled := fullClinicalServer(t), fullClinicalServer(t)
	serve := func(s *Server, path, body string, p *preparedQuery) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.serveQuery(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), path == "/query/stream", p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		if path == "/query/stream" {
			return withoutStreamTimings(t, rec.Body.Bytes())
		}
		return withoutTimings(t, rec.Body.Bytes())
	}
	reused := 0
	for round := range 3 { // cold, then from the plan cache and the root probe
		for _, path := range []string{"/query", "/query/stream"} {
			for _, body := range hygieneCorpus {
				want := serve(fresh, path, body, new(preparedQuery))
				p := preambles.Get().(*preparedQuery)
				if cap(p.key) > 0 {
					reused++
				}
				if got := serve(pooled, path, body, p); got != want {
					t.Fatalf("round %d, %s %s: a pooled preamble answers\n %s\na fresh one\n %s", round, path, body, got, want)
				}
				assertReleased(t, p)
			}
		}
	}
	if reused == 0 {
		t.Fatal("the pool handed back no used preamble: nothing was tested")
	}
}

// assertReleased fails unless the released preamble p holds nothing of the
// request it answered: no request field, no bind, no bound plan, no
// response, and no column name in its array.
func assertReleased(t *testing.T, p *preparedQuery) {
	t.Helper()
	if !reflect.ValueOf(p.req).IsZero() {
		t.Fatalf("a released preamble holds %+v", p.req)
	}
	if !reflect.ValueOf(p.bound).IsZero() || !reflect.ValueOf(p.resp).IsZero() {
		t.Fatalf("a released preamble holds the bound plan %+v, the response %+v", p.bound, p.resp)
	}
	for i, v := range p.binds[:cap(p.binds)] {
		if v != nil {
			t.Fatalf("a released preamble's bind %d holds %v", i, v)
		}
	}
	for i, c := range p.cols[:cap(p.cols)] {
		if c != "" {
			t.Fatalf("a released preamble's column %d holds %q", i, c)
		}
	}
}

// hitWriter is a reusable http.ResponseWriter that keeps the status and
// discards the body, as a benchmark's writer must to count only the server.
type hitWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }
func (w *hitWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// hitBody is a request body read from a reusable bytes.Reader.
type hitBody struct{ bytes.Reader }

func (*hitBody) Close() error { return nil }

// BenchmarkQueryRootProbeHit is the price of a /query read the root probe
// answers, from ServeHTTP to the last byte of the reply: 64 statements of
// bench/'s similar_family shape over a 2 000-row events table, each compiled,
// executed and published before the timer starts, one per op. Each op gets a
// fresh cancelable request context, as net/http gives each request; the
// request, its body reader and the writer are reused, so what is counted is
// the server's.
func BenchmarkQueryRootProbeHit(b *testing.B) {
	s, serve := benchHitServer(b)
	reused, executed := probeCount(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		serve(i)
	}
	b.StopTimer()
	if r, e := probeCount(b, s); r-reused != int64(b.N) || e != executed {
		b.Fatalf("%d of %d reads were root-probe hits, %d executed", r-reused, b.N, e-executed)
	}
}

// benchHitServer is BenchmarkQueryRootProbeHit's server, every statement
// published, and the function that serves statement i%64 to it.
func benchHitServer(tb testing.TB) (*Server, func(i int)) {
	store := relational.NewStore("db")
	tbl, err := store.CreateTable("events", cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64}, cast.Column{Name: "value", Type: cast.Float64}))
	if err != nil {
		tb.Fatal(err)
	}
	for i := range 2000 {
		if err := tbl.Insert(int64(i), int64(i%32), float64(i*7919%1000)/10); err != nil {
			tb.Fatal(err)
		}
	}
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	s := New(rt, compiler.Options{Level: 3, Accel: true}, Config{DefaultSQLEngine: "db"})
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = fmt.Appendf(nil, `{"frontend":"sql","statement":"SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d"}`, i%32, 1+i)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	body := new(hitBody)
	w := &hitWriter{h: make(http.Header)}
	serve := func(i int) {
		ctx, cancel := context.WithCancel(context.Background())
		r := req.WithContext(ctx)
		body.Reset(bodies[i%len(bodies)])
		r.Body = body
		clear(w.h)
		s.ServeHTTP(w, r)
		cancel()
		if w.code != http.StatusOK {
			tb.Fatalf("status %d", w.code)
		}
	}
	for i := range 2 * len(bodies) { // execute and publish, then a hit gathers each entry
		serve(i)
	}
	return s, serve
}
