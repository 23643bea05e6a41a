package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// postPreamble decodes and prepares body into p as /query does, and returns
// what prepareQuery wrote on failure ("" when it prepared).
func postPreamble(s *Server, p *preparedQuery, body string) string {
	rec := httptest.NewRecorder()
	if s.prepareQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)), s.tenants.state(""), p) {
		return ""
	}
	return rec.Body.String()
}

// jsonValue is a value of typ for a body to set a field of that type to.
func jsonValue(t *testing.T, name string, typ reflect.Type) any {
	switch typ.Kind() {
	case reflect.String:
		return "x"
	case reflect.Int, reflect.Int64:
		return 3
	case reflect.Bool:
		return true
	case reflect.Float64:
		return 0.5
	case reflect.Slice:
		switch typ.Elem() {
		case reflect.TypeFor[string]():
			return []string{"a", "b", "c"}
		case reflect.TypeFor[ProgramStep]():
			return []map[string]any{{"id": "m", "op": "train", "feature_cols": []string{"a"}, "hidden": 4, "lr": 0.5}}
		}
	}
	t.Fatalf("%s is a %s, which this test cannot set", name, typ)
	return nil
}

// TestPooledPreambleLeaksNoField: a pooled preamble decodes request after
// request, and JSON decoding into a used struct keeps every field the body
// omits. Each field of QueryRequest and of ProgramStep in turn, found by
// reflection as TestProgramShapeKeyCoversEveryField finds them, is set by a
// body decoded into a pooled preamble — also by a body that fails to decode
// after its steps are written — the preamble is released, and a body without
// the field is decoded into the preamble the pool hands back: its request
// must equal a fresh decode of that body. A field added later is covered, or
// fails here until this test can set it.
func TestPooledPreambleLeaksNoField(t *testing.T) {
	s := clinicalServer(clinicalData(t))
	body := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	type step = map[string]any
	var cases []struct{ name, with, without string }
	add := func(name, with, without string) {
		cases = append(cases, struct{ name, with, without string }{name, with, without})
	}
	req := reflect.TypeFor[QueryRequest]()
	for i := range req.NumField() {
		f := req.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		add("QueryRequest."+f.Name, body(map[string]any{name: jsonValue(t, f.Name, f.Type)}), `{}`)
	}
	st := reflect.TypeFor[ProgramStep]()
	for i := range st.NumField() {
		f := st.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v := jsonValue(t, f.Name, f.Type)
		set := []step{{name: v}, {name: v}, {name: v}}
		without := body(map[string]any{"frontend": "program", "program": []step{{}, {}, {}, {}}})
		add("ProgramStep."+f.Name, body(map[string]any{"frontend": "program", "program": set}), without)
		// The fourth step's id is a number: the decode fails after writing
		// the three steps before it.
		bad := body(map[string]any{"frontend": "program", "program": append(set, step{"id": 5})})
		add("ProgramStep."+f.Name+" (body that fails to decode)", bad, without)
	}

	reused := 0
	for _, tc := range cases {
		p := preambles.Get().(*preparedQuery)
		if got := postPreamble(s, p, tc.with); strings.Contains(got, "bad request body") != strings.Contains(tc.name, "fails") {
			t.Fatalf("%s: %s answered %q", tc.name, tc.with, got)
		}
		used := p
		p.release()
		if p = preambles.Get().(*preparedQuery); p == used {
			reused++
		}
		if got := postPreamble(s, p, tc.without); strings.Contains(got, "bad request body") {
			t.Fatalf("%s: %s answered %q", tc.name, tc.without, got)
		}
		var want QueryRequest
		if !s.decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.without)), &want) {
			t.Fatalf("%s does not decode", tc.without)
		}
		if !reflect.DeepEqual(p.req, want) {
			t.Errorf("%s leaks: after %s, %s decodes to\n %+v\nwant\n %+v", tc.name, tc.with, tc.without, p.req, want)
		}
		p.release()
	}
	// The pool may drop what it is handed (the race detector's build drops a
	// quarter at random), but not every time.
	if reused == 0 {
		t.Fatalf("the pool handed back none of %d released preambles: nothing was tested", len(cases))
	}
}

// answerOf is a /query (or /ingest) answer with what differs between equal
// answers taken out: wall time, cache verdicts and the global data version
// (which any write moves) gone, rows sorted.
func answerOf(code int, raw []byte) string {
	if code != http.StatusOK {
		return fmt.Sprintf("%d %s", code, raw)
	}
	var resp map[string]any
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Sprintf("unreadable answer (%v): %s", err, raw)
	}
	delete(resp, "wall_us")
	delete(resp, "plan_cache")
	delete(resp, "single_flight")
	delete(resp, "data_version")
	if rows, ok := resp["rows"].([]any); ok {
		slices.SortFunc(rows, func(a, b any) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
	}
	out, _ := json.Marshal(resp) // what Unmarshal built marshals
	return string(out)
}

// streamAnswerOf is a /query/stream answer reduced as answerOf reduces a
// /query one: the schema record, the rows of every batch record sorted, and
// the summary without wall time, cache verdicts or data version.
func streamAnswerOf(code int, raw []byte) string {
	if code != http.StatusOK {
		return fmt.Sprintf("%d %s", code, raw)
	}
	var rows []any
	var records []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Sprintf("unreadable record (%v): %s", err, line)
		}
		if rec["type"] == "batch" {
			rows = append(rows, rec["rows"].([]any)...)
			continue
		}
		delete(rec, "wall_us")
		delete(rec, "plan_cache")
		delete(rec, "single_flight")
		delete(rec, "data_version")
		records = append(records, rec)
	}
	slices.SortFunc(rows, func(a, b any) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
	out, _ := json.Marshal([]any{records, rows})
	return string(out)
}

// serveAnswer serves body on path in process and returns its reduced answer.
func serveAnswer(s *Server, ctx context.Context, path, body string) string {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
	if path == "/query/stream" {
		return streamAnswerOf(rec.Code, rec.Body.Bytes())
	}
	return answerOf(rec.Code, rec.Body.Bytes())
}

// TestPooledPlanKeepsFeatureCols: a plan compiled from a pooled request
// keeps its feature_cols after 400 other programs, each training on the
// features in another order and with hidden 8, pass through the pool, and a
// request of its shape that leaves hidden to its default still answers what
// a fresh server answers a body naming hidden 16 explicitly (a fresh server
// decodes into the same pool; the explicit body leaves it nothing to
// inherit).
func TestPooledPlanKeepsFeatureCols(t *testing.T) {
	data := clinicalData(t)
	s := clinicalServer(data)
	program := func(a, v, hidden int, reversed bool) []ProgramStep {
		steps := crossEngineProgram(a, v)
		steps[5].Hidden = hidden
		if reversed {
			for _, i := range []int{5, 6} {
				steps[i].FeatureCols = slices.Clone(steps[i].FeatureCols)
				slices.Reverse(steps[i].FeatureCols)
			}
		}
		return steps
	}
	post := func(s *Server, steps []ProgramStep) string {
		b, err := json.Marshal(QueryRequest{Frontend: "program", Program: steps})
		if err != nil {
			t.Fatal(err)
		}
		return serveAnswer(s, context.Background(), "/query", string(b))
	}
	if got := post(s, program(40, 2, 0, false)); !strings.HasPrefix(got, "{") {
		t.Fatalf("the template program: %s", got)
	}
	key, _ := programKey(program(40, 2, 0, false))
	compiled, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("the template program's plan is not cached under its shape key")
	}
	featureCols := func() map[string][]string {
		cols := map[string][]string{}
		for _, n := range compiled.Graph.Nodes() {
			if fc, ok := n.Attr("feature_cols").([]string); ok {
				cols[n.Kind.String()] = slices.Clone(fc)
			}
		}
		return cols
	}
	before := featureCols()
	if len(before) != 2 {
		t.Fatalf("the plan's train and predict nodes hold %v", before)
	}
	for i := range 400 {
		if got := post(s, program(20+i%50, i/50, 8, true)); !strings.HasPrefix(got, "{") {
			t.Fatalf("program %d: %s", i, got)
		}
	}
	if after := featureCols(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the cached plan's feature_cols were %v, are %v", before, after)
	}
	got := post(s, program(41, 3, 0, false))
	if want := post(clinicalServer(data), program(41, 3, 16, false)); got != want {
		t.Fatalf("after 400 programs through the pool:\n %s\na fresh server:\n %s", got, want)
	}
}

// TestPooledPreambleConcurrent: concurrent clients post distinct program and
// SQL bodies to /query and /query/stream — several clients the same body at
// once, so single-flight shares executions, beside malformed and oversized
// bodies and requests canceled mid-flight — through one server's pooled
// preambles and decoders, and /ingest rows (to a table no query reads, each
// id beyond 2^53) between malformed and oversized /ingest bodies. Every
// answer equals the one a fresh server gives the body, but for a canceled
// request's, which may stop short, and every row reads back exact. CI runs
// it under the race detector twenty times.
func TestPooledPreambleConcurrent(t *testing.T) {
	data := clinicalData(t)
	s := clinicalServer(data)
	type job struct {
		path, body string
		cancel     bool
	}
	var bodies []string
	for i := range 4 {
		b, err := json.Marshal(QueryRequest{Frontend: "program", Program: crossEngineProgram(30+7*i, i%4)})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for i := range 4 {
		bodies = append(bodies, fmt.Sprintf(`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > %d AND prior_visits >= %d"}`, 30+9*i, i%3))
	}
	malformed := []string{
		`{"frontend":"program","program":[{"id":"p","op":"sql","engine":"db-clinical","sql":"SELECT pid FROM patients"},{"id":5}]}`,
		`{"frontend":"program","program":[{"id":"p","op":"sql","feature_cols":["age"]}`,
		`{"frontend":"sql","statement":"SELECT pid FROM patients","level":3}`,
		`{"frontend":"program","program":[{"id":"a","op":"join","engine":"db-clinical","left":"x","right":"y","left_col":"pid","right_col":"pid"}]}`,
	}
	oversized := `{"frontend":"sql","statement":"SELECT pid FROM patients` + strings.Repeat(" ", 1<<20) + `"}`
	bodies = append(bodies, malformed...)
	bodies = append(bodies, oversized)

	badIngests := []string{
		`{"engine":"db-clinical","table":"admissions","row":[1,3,1200000000000000000,"icu"],"bogus":1}`,
		`{"engine":"db-clinical","table":"admissions","row":[1,3,`,
		`{"engine":"db-clinical","table":"admissions","row":[1,3,1200000000000000000,"icu"]}` + strings.Repeat(" ", 1<<20),
	}

	fresh := clinicalServer(data)
	want := map[[2]string]string{}
	for _, body := range badIngests {
		want[[2]string{"/ingest", body}] = serveAnswer(fresh, context.Background(), "/ingest", body)
	}
	for _, path := range []string{"/query", "/query/stream"} {
		for i, body := range bodies {
			w := serveAnswer(fresh, context.Background(), path, body)
			// 200 (an answer, not a status), 400 or 413.
			if status := []string{"", "400 ", "413 "}[min(i/8, 1)+i/12]; !strings.HasPrefix(w, status) || status == "" && w[0] <= '9' {
				t.Fatalf("%s %.80s: a fresh server answers %.200s", path, body, w)
			}
			want[[2]string{path, body}] = w
		}
	}

	const clients = 4
	var written []int
	jobs := make([][]job, clients)
	for c := range clients {
		// Every client posts the same valid bodies in the same order, three
		// rounds, so identical requests run at once; between them it posts
		// a malformed or oversized body of its own, and it cancels one valid
		// body mid-flight each round. After every read it also writes a row
		// of its own, or posts a malformed write.
		for i, body := range slices.Concat(bodies[:8], bodies[:8], bodies[:8]) {
			path := []string{"/query", "/query/stream"}[(i%8+c)%2]
			jobs[c] = append(jobs[c], job{path: path, body: body, cancel: i%8 == 2*c+1})
			jobs[c] = append(jobs[c], job{path: path, body: bodies[8+(i%8+c)%5]})
			write := badIngests[(i+c)%len(badIngests)]
			if i%2 == 0 {
				aid := 1<<53 + 1 + 100*c + i
				write = fmt.Sprintf(`{"engine":"db-clinical","table":"admissions","row":[%d,3,1200000000000000000,"icu"]}`, aid)
				want[[2]string{"/ingest", write}], written = `{"ok":true}`, append(written, aid)
			}
			jobs[c] = append(jobs[c], job{path: "/ingest", body: write})
		}
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs[c] {
				ctx, cancel := context.WithCancel(context.Background())
				if j.cancel {
					time.AfterFunc(time.Duration(c)*time.Millisecond, cancel)
				}
				got := serveAnswer(s, ctx, j.path, j.body)
				cancel()
				// A canceled request answers in full, 499, or — a stream cut
				// between its records — without a summary.
				cut := strings.HasPrefix(got, "499 ") || j.path == "/query/stream" && !strings.Contains(got, `"summary"`)
				if w := want[[2]string{j.path, j.body}]; got != w && !(j.cancel && cut) {
					t.Errorf("client %d, %s %.80s:\n %s\nfresh server:\n %s", c, j.path, j.body, got, w)
				}
			}
		}()
	}
	wg.Wait()

	slices.Sort(written)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(
		`{"frontend":"sql","statement":"SELECT aid FROM admissions WHERE aid > 9007199254740992 ORDER BY aid"}`)))
	var read struct{ Rows [][]int }
	if err := json.Unmarshal(rec.Body.Bytes(), &read); err != nil {
		t.Fatal(err)
	}
	if got := slices.Concat(read.Rows...); !slices.Equal(got, written) {
		t.Fatalf("the rows written read back as %v, want %v", got, written)
	}
}
