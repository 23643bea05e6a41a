package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// crossEngineProgram is bench/'s cross_engine request: the Figure-2 pipeline
// over the clinical deployment — two SQL steps, the vitals summary, two
// joins, train and predict — for patients older than a with at least v prior
// visits.
func crossEngineProgram(a, v int) []ProgramStep {
	features := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
	return []ProgramStep{
		{ID: "p", Op: "sql", Engine: "db-clinical", SQL: fmt.Sprintf(
			"SELECT pid, age, gender_male, prior_visits FROM patients WHERE age > %d AND prior_visits >= %d", a, v)},
		{ID: "n", Op: "sql", Engine: "db-clinical", SQL: "SELECT pid AS npid, sum(icu_hours) AS icu_hours, count(*) AS n_stays, max(long_stay) AS long_stay FROM stays GROUP BY pid"},
		{ID: "s", Op: "tswindow", Engine: "ts-vitals", SeriesPrefix: "vitals/", Agg: "mean"},
		{ID: "pn", Op: "join", Engine: "db-clinical", Left: "p", Right: "n", LeftCol: "pid", RightCol: "npid"},
		{ID: "pns", Op: "join", Engine: "db-clinical", Left: "pn", Right: "s", LeftCol: "pid", RightCol: "vpid"},
		{ID: "m", Op: "train", Engine: datagen.MLEngine, Input: "pns", FeatureCols: features, LabelCol: "long_stay", Hidden: 16, Epochs: 2, Batch: 64, LR: 0.3},
		{ID: "y", Op: "predict", Engine: datagen.MLEngine, Model: "m", Input: "pns", FeatureCols: features},
	}
}

// clinicalData is a small clinical deployment's data: 40 patients.
func clinicalData(tb testing.TB) *datagen.Clinical {
	tb.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 40)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// clinicalServer serves data's relational, timeseries and ML engines, with
// nothing cached.
func clinicalServer(data *datagen.Clinical) *Server {
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db-clinical", relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewTimeseries("ts-vitals", data.Timeseries))
	rt.Register(adapter.NewML(datagen.MLEngine, 1))
	return New(rt, compiler.Options{Level: 3, Accel: true}, Config{DefaultSQLEngine: "db-clinical"})
}

// programServer serves a small clinical deployment, and primes its plan
// cache with the cross_engine program: the first request of the shape is
// built, compiled and run. It returns 400 requests of that shape, bench/'s
// (a, v) grid.
func programServer(tb testing.TB) (*Server, []QueryRequest) {
	tb.Helper()
	s := clinicalServer(clinicalData(tb))
	var reqs []QueryRequest
	for a := 20; a < 70; a++ {
		for v := 0; v < 8; v++ {
			reqs = append(reqs, QueryRequest{Frontend: "program", Program: crossEngineProgram(a, v)})
		}
	}
	ts := s.tenants.state("")
	p := &preparedQuery{req: reqs[0], tenant: ts.id}
	if err := s.prepare(p); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.runQuery(context.Background(), p); err != nil {
		tb.Fatal(err)
	}
	return s, reqs
}

// pooled is a preamble from the pool holding req for tenant, its steps and
// their feature columns copied into the preamble's own arrays, where
// decoding would put them (release keeps and clears them).
func pooled(req QueryRequest, tenant string) *preparedQuery {
	p := preambles.Get().(*preparedQuery)
	for i, st := range req.Program {
		var own []string
		if i < cap(p.steps) {
			own = p.steps[:cap(p.steps)][i].FeatureCols
		}
		st.FeatureCols = append(own[:0], st.FeatureCols...)
		p.steps = append(p.steps, st)
	}
	p.req, p.tenant = req, tenant
	p.req.Program = p.steps
	return p
}

// BenchmarkPrepareProgramShapeHit is the price of preparing a cross_engine
// request, everything after the body is decoded, once its shape is compiled:
// the program shape key, a plan-cache hit and the version vector.
func BenchmarkPrepareProgramShapeHit(b *testing.B) {
	s, reqs := programServer(b)
	ts := s.tenants.state("")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pooled(reqs[i%len(reqs)], ts.id)
		if err := s.prepare(p); err != nil || p.plan == nil {
			b.Fatalf("plan %v, err %v", p.plan, err)
		}
		p.release()
	}
}

// BenchmarkPrepareQueryProgram is the frontend-parse layer of a cross_engine
// request whose shape is compiled: prepareQuery from the body's bytes —
// decode into a pooled preamble, program shape key, plan-cache hit, version
// vector — and the release. The requests are built outside the timer.
func BenchmarkPrepareQueryProgram(b *testing.B) {
	s, reqs := programServer(b)
	ts := s.tenants.state("")
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	rs := make([]*http.Request, len(reqs))
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(rs) == 0 {
			b.StopTimer()
			for j, body := range bodies {
				rs[j] = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			}
			b.StartTimer()
		}
		p := preambles.Get().(*preparedQuery)
		if !s.prepareQuery(w, rs[i%len(rs)], ts, p) || p.plan == nil {
			b.Fatalf("prepare failed: %d %s", w.Code, w.Body)
		}
		p.release()
	}
}

// programKey is req's program shape key, or "" when it has none.
func programKey(steps []ProgramStep) (string, []any) {
	k, binds, ok := appendShapeKey(nil, &QueryRequest{Frontend: "program", Program: steps}, "", nil)
	if !ok {
		return "", nil
	}
	return string(k), binds
}

// TestProgramShapeKeyCoversEveryField: a program shape key stands for every
// field of every step — a field it left out would hand two programs that
// build apart one plan. Setting each ProgramStep field in turn, by
// reflection, yields a key of its own, so a field added later fails here
// until the key holds it. A sql step's text is keyed by its shape: its
// constants are the key's binds.
func TestProgramShapeKeyCoversEveryField(t *testing.T) {
	keys := map[string]string{}
	zero, _ := programKey([]ProgramStep{{}})
	keys[zero] = "no field"
	typ := reflect.TypeFor[ProgramStep]()
	for i := range typ.NumField() {
		var st ProgramStep
		f := reflect.ValueOf(&st).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int:
			f.SetInt(1)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("ProgramStep.%s is a %s, which this test cannot set", typ.Field(i).Name, f.Kind())
		}
		key, _ := programKey([]ProgramStep{st})
		if other, dup := keys[key]; dup {
			t.Errorf("setting ProgramStep.%s leaves the key of %s", typ.Field(i).Name, other)
		}
		keys[key] = typ.Field(i).Name
	}

	sql := func(stmt string) []ProgramStep { return []ProgramStep{{ID: "q", Op: "sql", Engine: "db", SQL: stmt}} }
	k1, b1 := programKey(sql("SELECT id FROM t WHERE kind = 1 LIMIT 3"))
	k2, b2 := programKey(sql("SELECT id FROM t WHERE kind = 2 LIMIT 4"))
	k3, _ := programKey(sql("SELECT id FROM t WHERE kind = 'a' LIMIT 4"))
	if k1 != k2 || k1 == k3 || !slices.Equal(b1, []any{int64(1), int64(3)}) || !slices.Equal(b2, []any{int64(2), int64(4)}) {
		t.Errorf("sql steps keyed by text, not shape: %q %v, %q %v, %q", k1, b1, k2, b2, k3)
	}
}

// redraw rewrites sql's literals with other constants of their class, as
// compiler's FuzzStatementShape does: each digit of a number shifted by k,
// each letter of a string rotated by k, true and false swapped when k is
// odd. Names are left alone.
func redraw(sql string, k uint8) string {
	var b strings.Builder
	quoted := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			quoted = !quoted
		case quoted && 'a' <= c && c <= 'z':
			c = 'a' + (c-'a'+k)%26
		case quoted:
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			j := i
			for j < len(sql) && (sql[j] == '_' || sql[j] == '.' || 'a' <= sql[j] && sql[j] <= 'z' || 'A' <= sql[j] && sql[j] <= 'Z' || '0' <= sql[j] && sql[j] <= '9') {
				j++
			}
			word := sql[i:j]
			if k%2 == 1 && strings.EqualFold(word, "true") {
				word = "false"
			} else if k%2 == 1 && strings.EqualFold(word, "false") {
				word = "true"
			}
			b.WriteString(word)
			i = j - 1
			continue
		case '0' <= c && c <= '9':
			c = '0' + (c-'0'+k)%10
		}
		b.WriteByte(c)
	}
	return b.String()
}

// fuzzSteps builds a program of up to eight steps, one per byte of ops: the
// byte's value mod 10 picks the op, its high bits the earlier steps it reads
// (a reference to no step makes the build fail, as a client's would).
func fuzzSteps(sqlA, sqlB string, ops []byte) []ProgramStep {
	var steps []ProgramStep
	for i, b := range ops[:min(len(ops), 8)] {
		ref := func(d byte) string {
			if i == 0 {
				return "none"
			}
			return steps[int(d)%i].ID
		}
		in, other := ref(b>>4), ref(b>>6)
		st := ProgramStep{ID: fmt.Sprintf("s%d", i), Engine: "db"}
		switch b % 10 {
		case 0:
			st.Op, st.SQL = "sql", sqlA
		case 1:
			st.Op, st.SQL = "sql", sqlB
		case 2:
			st.Op, st.Engine, st.Query = "cypher", "g", "MATCH (a:Patient)-[:SEES]->(b:Doctor)"
		case 3:
			st.Op, st.Engine, st.Query, st.K = "text", "txt", "icu stay", int(b>>4)
		case 4:
			st.Op, st.Engine, st.SeriesPrefix, st.Agg = "tswindow", "ts", "vitals/", "mean"
		case 5:
			st.Op, st.Engine, st.Prefix = "kvscan", "kv", "user:"
		case 6:
			st.Op, st.Left, st.Right, st.LeftCol, st.RightCol = "join", in, other, "pid", "vpid"
		case 7:
			st.Op, st.Input, st.Col, st.Desc = "sort", in, "age", b&0x80 != 0
		case 8:
			st.Op, st.Engine, st.Input, st.FeatureCols, st.LabelCol = "train", "ml", in, []string{"age"}, "long_stay"
			st.Hidden, st.Epochs, st.LR = int(b>>4), 1, 0.1
		case 9:
			st.Op, st.Engine, st.Model, st.Input, st.FeatureCols = "predict", "ml", in, other, []string{"age"}
		}
		steps = append(steps, st)
	}
	return steps
}

// FuzzProgramShape: a program whose parses lift exactly the literals its
// shape key lexed, none of them shaping it by value, is a template: the plan
// cache maps its program shape key to its plan and serves every program of
// that key from it, with the plan's key and touches and the lexed binds. So
// any program with that key — here the program with its SQL literals
// redrawn — must build, lift the constants its key lexed, compile under the
// same plan key, and touch the same data.
func FuzzProgramShape(f *testing.F) {
	f.Add("SELECT pid, age, gender_male FROM patients WHERE age > 60 AND prior_visits >= 2",
		"SELECT pid AS npid, count(*) AS n FROM stays GROUP BY pid", []byte{0, 1, 4, 0x16, 0x48, 0x59}, uint8(3))
	f.Add("SELECT id, value FROM events WHERE kind = 7 ORDER BY value DESC LIMIT 12",
		"SELECT sum(v) AS s FROM t WHERE name = 'x''y' AND flag = true", []byte{1, 0, 0x17, 0x86, 2, 3, 5}, uint8(1))
	f.Add("SELECT value * 2 FROM events WHERE true", "SELECT * FROM t LIMIT 5", []byte{0, 1, 0x46}, uint8(4))
	opts := compiler.Options{Level: 3, Accel: true}
	f.Fuzz(func(t *testing.T, sqlA, sqlB string, ops []byte, k uint8) {
		steps := fuzzSteps(sqlA, sqlB, ops)
		key, lexed := programKey(steps)
		if key == "" {
			return
		}
		prog, err := buildProgram(steps)
		if err != nil || prog.ValueShaped() || !slices.Equal(lexed, prog.Graph().Binds()) {
			return // not a template
		}
		others := slices.Clone(steps)
		for i := range others {
			if others[i].Op == "sql" {
				others[i].SQL = redraw(others[i].SQL, k)
			}
		}
		otherKey, otherLexed := programKey(others)
		if otherKey != key {
			return // the cache would not serve it from this template
		}
		q, err := buildProgram(others)
		if err != nil {
			t.Fatalf("%+v has the shape key of %+v, which builds, but fails: %v", others, steps, err)
		}
		if q.ValueShaped() || !slices.Equal(otherLexed, q.Graph().Binds()) {
			t.Fatalf("%+v: lexed %#v, built %#v (value-shaped %t)", others, otherLexed, q.Graph().Binds(), q.ValueShaped())
		}
		if compiler.Key(prog.Graph(), opts) != compiler.Key(q.Graph(), opts) {
			t.Fatalf("%+v and %+v share a program shape key but not a plan key", steps, others)
		}
		if got, want := compiler.TouchesOf(q.Graph()), compiler.TouchesOf(prog.Graph()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v touches %v, but %+v, which shares its shape key, touches %v", others, got.ByEngine, steps, want.ByEngine)
		}
	})
}
