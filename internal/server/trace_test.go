// Tests of the request-tracing surfaces added by the observability PR:
// trace-on vs trace-off result equivalence (tracing must never change
// results), span-tree completeness (one span per executed plan node), the
// /debug/queries flight recorder, the trailing NDJSON trace record on
// /query/stream, and the pprof mount gate.
package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"polystorepp"
	"polystorepp/internal/obs"
)

// withTrace injects "trace": true into a JSON request body.
func withTrace(body string) string {
	return strings.Replace(body, "{", `{"trace":true,`, 1)
}

// assertSpanTree pins span-tree completeness for one traced response:
// exactly one span per executed plan node, unique node ids, non-negative
// clocks, and every engine label filled.
func assertSpanTree(t *testing.T, tree *obs.Tree, nodes int, body string) {
	t.Helper()
	if tree == nil {
		t.Fatalf("traced response has no trace\nbody: %s", body)
	}
	if len(tree.Spans) != nodes {
		t.Fatalf("trace has %d spans, response reports %d nodes\nbody: %s", len(tree.Spans), nodes, body)
	}
	seen := make(map[int64]bool, len(tree.Spans))
	for _, sp := range tree.Spans {
		if seen[sp.Node] {
			t.Fatalf("duplicate span for node %d\nbody: %s", sp.Node, body)
		}
		seen[sp.Node] = true
		if sp.Kind == "" || sp.Engine == "" {
			t.Fatalf("span missing labels: %+v", sp)
		}
		if sp.RunUS < 0 || sp.QueueUS < 0 || sp.StartUS < 0 {
			t.Fatalf("negative span clocks: %+v", sp)
		}
	}
}

// TestTraceEquivalenceProperty is the tracing counterpart of the streaming
// equivalence suite: for generated plans on servers pinned at partition
// fan-outs 1/2/7/64, a traced request must return byte-identical results to
// an untraced one, and its span tree must cover every plan node exactly
// once, whether the node ran or the subplan cache the untraced request
// filled served it.
func TestTraceEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bodies := randomQueryBodies(rng, 8)
	for _, parts := range fanOuts {
		ts := newStreamTestServer(t, polystore.ServeConfig{Workers: 8, QueueDepth: 256}, executeAll, pinParts(parts))
		for i, body := range bodies {
			t.Run(fmt.Sprintf("q%d_parts%d", i, parts), func(t *testing.T) {
				code, plain, raw := postQuery(t, ts, body)
				if code != http.StatusOK {
					t.Fatalf("untraced status %d: %s", code, raw)
				}
				tcode, traced, traw := postQuery(t, ts, withTrace(body))
				if tcode != http.StatusOK {
					t.Fatalf("traced status %d: %s", tcode, traw)
				}
				if plain.Trace != nil {
					t.Fatal("untraced response carries a trace")
				}
				if !reflect.DeepEqual(plain.Columns, traced.Columns) ||
					!reflect.DeepEqual(plain.Rows, traced.Rows) ||
					plain.RowCount != traced.RowCount ||
					plain.Truncated != traced.Truncated {
					t.Fatalf("traced result differs from untraced\nbody: %s", body)
				}
				assertSpanTree(t, traced.Trace, traced.Nodes, body)
			})
		}
	}
}

// TestTraceCrossEnginePlan is the acceptance check: "trace": true on a plan
// spanning two engine kinds returns one span per plan node, including the
// migration nodes the middleware inserted on cross-engine edges.
func TestTraceCrossEnginePlan(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	body := withTrace(`{"frontend":"program","program":[
		{"id":"p","op":"sql","engine":"db-clinical","sql":"SELECT pid, age FROM patients"},
		{"id":"v","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"mean"},
		{"id":"j","op":"join","engine":"db-clinical","left":"p","right":"v","left_col":"pid","right_col":"vpid"}
	]}`)
	code, qr, raw := postQuery(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	assertSpanTree(t, qr.Trace, qr.Nodes, body)
	if qr.Migrations == 0 {
		t.Fatal("cross-engine program reported no migrations")
	}
	engines := make(map[string]bool)
	migrations := 0
	for _, sp := range qr.Trace.Spans {
		engines[sp.Engine] = true
		if sp.Kind == "migrate" {
			migrations++
		}
	}
	if !engines["db-clinical"] || !engines["ts-vitals"] || !engines["middleware"] {
		t.Fatalf("span engines = %v, want db-clinical + ts-vitals + middleware", engines)
	}
	if migrations != qr.Migrations {
		t.Fatalf("trace has %d Migrate spans, report says %d migrations", migrations, qr.Migrations)
	}
	// Serving-layer events and annotations ride along on the same tree.
	if qr.Trace.Annotations["single_flight"] != "leader" {
		t.Fatalf("annotations = %v, want single_flight=leader", qr.Trace.Annotations)
	}
}

// TestPinnedPartsReportedOnSpan: pinned means pinned. A server pinned at a
// fan-out runs every partitioned operator at it however often it has seen
// the statement, and the trace spans say so.
func TestPinnedPartsReportedOnSpan(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{}, executeAll, subplanBytes(-1), pinParts(7))
	// patients holds 120 rows: automatic sizing would not fan out at all.
	body := withTrace(`{"frontend":"sql","statement":"SELECT pid, age + 1 AS adj FROM patients"}`)
	for round := 0; round < 8; round++ {
		code, qr, raw := postQuery(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, code, raw)
		}
		assertSpanTree(t, qr.Trace, qr.Nodes, body)
		pinned := 0
		for _, sp := range qr.Trace.Spans {
			switch sp.Parts {
			case 0: // not a partitioned operator
			case 7:
				pinned++
			default:
				t.Fatalf("round %d: span %s ran at parts %d, server pinned 7", round, sp.Kind, sp.Parts)
			}
		}
		if pinned == 0 {
			t.Fatalf("round %d: no span reports the pinned fan-out: %s", round, raw)
		}
	}
}

// TestTraceStreamRecord: on /query/stream the span tree travels as a
// dedicated NDJSON record between the last batch and the summary.
func TestTraceStreamRecord(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{})
	body := withTrace(`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 40"}`)
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	type traceLine struct {
		Type  string    `json:"type"`
		Nodes int       `json:"nodes"`
		Trace *obs.Tree `json:"trace"`
	}
	var lines []traceLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l traceLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		lines = append(lines, l)
	}
	if len(lines) < 3 {
		t.Fatalf("stream too short: %d records", len(lines))
	}
	last, prev := lines[len(lines)-1], lines[len(lines)-2]
	if last.Type != "summary" {
		t.Fatalf("terminal record is %q, want summary", last.Type)
	}
	if prev.Type != "trace" {
		t.Fatalf("record before summary is %q, want trace", prev.Type)
	}
	assertSpanTree(t, prev.Trace, last.Nodes, body)
}

// debugQueriesDoc is the /debug/queries response shape.
type debugQueriesDoc struct {
	TracedTotal int64       `json:"traced_total"`
	Recent      []*obs.Tree `json:"recent"`
	Slowest     []*obs.Tree `json:"slowest"`
}

func getDebugQueries(t *testing.T, ts *httptest.Server) debugQueriesDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", resp.StatusCode)
	}
	var doc debugQueriesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDebugQueriesFlightRecorder: traced requests land in /debug/queries;
// untraced ones don't; the recent ring is bounded at 64 and the slowest list
// at 32, sorted slowest-first; and a genuinely slow query survives the ring
// rolling over — the slowest-N retention acceptance check.
func TestDebugQueriesFlightRecorder(t *testing.T) {
	ts := newStreamTestServer(t, polystore.ServeConfig{}, executeAll)

	if doc := getDebugQueries(t, ts); doc.TracedTotal != 0 || len(doc.Recent) != 0 {
		t.Fatalf("fresh server already has traces: %+v", doc)
	}
	// An untraced request must not be recorded.
	if code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if doc := getDebugQueries(t, ts); doc.TracedTotal != 0 {
		t.Fatalf("untraced request was recorded: %+v", doc)
	}

	// One slow traced query (100x join amplification over 10k rows), then
	// enough fast traced queries to wrap the 64-entry recent ring.
	slow := withTrace(`{"frontend":"sql","statement":"SELECT k, dkey FROM points JOIN dup ON x = dkey","max_rows":1}`)
	if code, _, raw := postQuery(t, ts, slow); code != http.StatusOK {
		t.Fatalf("slow query status %d: %s", code, raw)
	}
	fast := withTrace(`{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 1"}`)
	const fastN = 70
	for i := 0; i < fastN; i++ {
		if code, _, raw := postQuery(t, ts, fast); code != http.StatusOK {
			t.Fatalf("fast query status %d: %s", code, raw)
		}
	}

	doc := getDebugQueries(t, ts)
	if doc.TracedTotal != fastN+1 {
		t.Fatalf("traced_total = %d, want %d", doc.TracedTotal, fastN+1)
	}
	if len(doc.Recent) != 64 {
		t.Fatalf("recent ring holds %d, want 64", len(doc.Recent))
	}
	if len(doc.Slowest) == 0 || len(doc.Slowest) > 32 {
		t.Fatalf("slowest holds %d, want 1..32", len(doc.Slowest))
	}
	for i := 1; i < len(doc.Slowest); i++ {
		if doc.Slowest[i-1].WallUS < doc.Slowest[i].WallUS {
			t.Fatalf("slowest not sorted: %d before %d", doc.Slowest[i-1].WallUS, doc.Slowest[i].WallUS)
		}
	}
	// The slow join fell out of the recent ring (70 fast queries wrapped it)
	// but must survive in slowest. Its trace is the only one with a hash-join
	// span over the points table's 10k rows.
	found := false
	for _, tr := range doc.Slowest {
		for _, sp := range tr.Spans {
			if sp.Kind == "hash-join" && sp.RowsOut >= 10000 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("slow join trace not retained in slowest list")
	}
}

// TestPprofMountGate: profile handlers exist only when EnablePprof opts in.
func TestPprofMountGate(t *testing.T) {
	off := newTestServer(t, polystore.ServeConfig{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: status %d", resp.StatusCode)
	}

	on := newTestServer(t, polystore.ServeConfig{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not reachable with EnablePprof: status %d", resp.StatusCode)
	}
}

// TestStatsObservabilityFields: /stats carries the per-operator registry and
// request-latency quantiles after serving traffic, and /metrics exposes the
// per-operator Prometheus families.
func TestStatsObservabilityFields(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	if code, _, raw := postQuery(t, ts, `{"frontend":"sql","statement":"SELECT pid FROM patients LIMIT 5"}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		OpStats   map[string]json.RawMessage `json:"op_stats"`
		LatencyUS map[string]float64         `json:"request_latency_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.OpStats) == 0 {
		t.Fatal("/stats op_stats is empty after a served query")
	}
	if stats.LatencyUS["count"] < 1 || stats.LatencyUS["p50"] <= 0 {
		t.Fatalf("request_latency_us = %v", stats.LatencyUS)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, mustReadAll(t, mresp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"core_op_", "_wall_seconds_total", "server_request_latency_seconds_p95"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func mustReadAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
