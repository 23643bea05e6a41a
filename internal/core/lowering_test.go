package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// A SELECT has one meaning whichever way it enters: relational.Engine.Query
// (native) and eide -> compiler.Compile -> Runtime.Execute (served) lower it
// through the same step list and choose its access path with the same table
// method. The tests below hold the two routes to one schema and one row set,
// and pin the access path the served route reports.

// loweringStore is the clinical dataset (patients and admissions carry a
// B-tree on pid; nothing else is indexed) plus two tables of the shapes the
// clinical one lacks: events(id, kind, value), unindexed like the one bench/
// deploys, and visits(vid, vpid, cost), which joins to patients without a
// column-name clash and is inserted out of key order under a B-tree on vid,
// so a seek and a heap scan return its rows in different orders.
func loweringStore(t testing.TB) *relational.Store {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(19)), 300)
	if err != nil {
		t.Fatal(err)
	}
	s := data.Relational
	events, err := s.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	visits, err := s.CreateTable("visits", cast.MustSchema(
		cast.Column{Name: "vid", Type: cast.Int64},
		cast.Column{Name: "vpid", Type: cast.Int64},
		cast.Column{Name: "cost", Type: cast.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		// Eighths add exactly in any order, as bench/'s values do.
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

// served runs one statement through the IR route at the given level.
func served(t *testing.T, rt *Runtime, sql string, level int) (*cast.Batch, *Report) {
	t.Helper()
	p := eide.NewProgram()
	if _, err := p.SQL("db", sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: level})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatalf("%s at L%d: %v", sql, level, err)
	}
	return res.First().Batch, rep
}

// rowsOf renders a batch's rows, sorted unless the statement ordered them.
func rowsOf(t *testing.T, b *cast.Batch, ordered bool) []string {
	t.Helper()
	out := make([]string, b.Rows())
	for i := range out {
		row, err := b.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprint(row...)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// loweringCorpus is the hand-written half of the suite: the statement shapes
// bench/ serves, the cases where the two routes used to disagree, and the
// edges of the lowering.
var loweringCorpus = []string{
	// hot_rw.
	"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC, pid LIMIT 10",
	"SELECT count(*) AS n FROM patients",
	"SELECT gender_male, count(*) AS n, avg(age) AS mean_age FROM patients GROUP BY gender_male",
	"SELECT pid, prior_visits FROM patients WHERE prior_visits >= 6 LIMIT 20",
	"SELECT sid, icu_hours FROM stays WHERE icu_hours > 90 ORDER BY icu_hours DESC, sid LIMIT 10",
	"SELECT long_stay, count(*) AS n FROM stays GROUP BY long_stay",
	// cold_analytic.
	"SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= 700 GROUP BY kind",
	"SELECT id, value FROM events WHERE id >= 700 ORDER BY value DESC, id LIMIT 50",
	"SELECT age, count(*) AS n FROM events JOIN patients ON kind = pid WHERE id >= 700 GROUP BY age",
	"SELECT count(*) AS n, min(value) AS lo, max(value) AS hi, sum(value) AS total FROM events WHERE id < 1300",
	// similar_family, stream_scan, cross_engine.
	"SELECT id, value FROM events WHERE kind = 7 ORDER BY value DESC, id LIMIT 12",
	"SELECT * FROM events WHERE id >= 1500",
	"SELECT pid, age, gender_male, prior_visits FROM patients WHERE age > 40 AND prior_visits >= 2",
	"SELECT pid AS npid, sum(icu_hours) AS icu_hours, count(*) AS n_stays, max(long_stay) AS long_stay FROM stays GROUP BY pid",
	// The drift cases: an alias on a grouped column, a seekable conjunct
	// behind an unseekable one, a literal on the left.
	"SELECT gender_male AS g, max(age) AS m FROM patients GROUP BY gender_male",
	"SELECT pid, age FROM patients WHERE age > 60 AND pid < 50",
	"SELECT pid, age FROM patients WHERE pid < 50 AND age > 60",
	"SELECT pid FROM patients WHERE 10 > pid",
	// Select-list position and aliases, on grouped and plain columns.
	"SELECT count(*) AS n, gender_male FROM patients GROUP BY gender_male",
	"SELECT max(age) AS oldest, prior_visits AS v, count(*) AS n FROM patients GROUP BY prior_visits",
	"SELECT count(*) AS n FROM patients GROUP BY gender_male",
	"SELECT age AS a, pid AS id, age + prior_visits AS s FROM patients WHERE patients.pid <= 40",
	"SELECT * FROM patients GROUP BY gender_male",
	// Predicates over indexed and unindexed columns, both literal sides.
	"SELECT * FROM patients WHERE 250 <= pid AND age > 30 AND 3 >= prior_visits",
	"SELECT * FROM patients WHERE pid = 77",
	"SELECT * FROM patients WHERE pid < 20 OR pid > 280",
	"SELECT * FROM patients WHERE NOT pid < 290",
	"SELECT aid, ward FROM admissions WHERE pid >= 100 AND pid < 110 AND ward != 'icu'",
	"SELECT vid, cost FROM visits WHERE vid < 100",
	"SELECT vpid, sum(cost) AS spent FROM visits WHERE 800 <= vid GROUP BY vpid",
	// Joins, ON written either way.
	"SELECT pid, age, cost FROM patients JOIN visits ON pid = vpid WHERE pid < 20",
	"SELECT pid, age, cost FROM patients JOIN visits ON vpid = pid WHERE pid < 20",
	"SELECT vid, age FROM visits JOIN patients ON vpid = pid WHERE vid >= 850 ORDER BY vid DESC LIMIT 7",
	// A LIMIT over a join with no ORDER BY: the first rows the join emits.
	"SELECT pid, age, cost FROM patients JOIN visits ON pid = vpid LIMIT 15",
	// Empty results keep their schema.
	"SELECT pid, age FROM patients WHERE pid < 0",
	"SELECT gender_male AS g, count(*) AS n FROM patients WHERE age > 1000 GROUP BY gender_male",
	"SELECT * FROM visits WHERE vid > 5000 ORDER BY vid LIMIT 3",
	"SELECT pid FROM patients LIMIT 0",
}

// generateStatement draws one WHERE / GROUP BY / ORDER BY / LIMIT combination
// over patients. ORDER BY always ends in a column unique in the result (pid,
// or the group column), so an ordered comparison is exact, and LIMIT appears
// only under ORDER BY, so the rows it keeps do not depend on the access path.
func generateStatement(rng *rand.Rand) string {
	cols := []string{"pid", "age", "gender_male", "prior_visits"}
	maxOf := map[string]int{"pid": 300, "age": 90, "gender_male": 2, "prior_visits": 10}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	var conj []string
	for i := rng.Intn(4); i > 0; i-- {
		c := cols[rng.Intn(len(cols))]
		l, r := c, fmt.Sprint(rng.Intn(maxOf[c]))
		if rng.Intn(3) == 0 {
			l, r = r, l
		}
		term := fmt.Sprintf("%s %s %s", l, ops[rng.Intn(len(ops))], r)
		if rng.Intn(8) == 0 {
			term = "NOT " + term
		}
		conj = append(conj, term)
	}
	where := ""
	if len(conj) > 0 {
		where = " WHERE " + strings.Join(conj, " AND ")
	}

	var items []string // the select list
	var unique string  // an output column unique per result row
	group := ""
	if rng.Intn(2) == 0 {
		g := cols[1+rng.Intn(3)]
		unique = g
		if rng.Intn(2) == 0 {
			unique = "k"
			g += " AS k"
		}
		items = []string{g, "count(*) AS n"}
		for _, fn := range []string{"sum", "min", "max", "avg"} {
			if rng.Intn(3) == 0 {
				items = append(items, fmt.Sprintf("%s(%s) AS %s_v", fn, cols[rng.Intn(2)], fn))
			}
		}
		group = " GROUP BY " + strings.TrimSuffix(g, " AS k")
	} else {
		unique = "pid"
		items = []string{"pid"}
		for _, c := range cols[1:] {
			switch rng.Intn(3) {
			case 0:
				items = append(items, c)
			case 1:
				items = append(items, c+" AS "+c+"_x")
			}
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	sql := "SELECT " + strings.Join(items, ", ") + " FROM patients" + where + group
	if rng.Intn(2) == 0 {
		first := items[rng.Intn(len(items))]
		if i := strings.LastIndex(first, " "); i >= 0 {
			first = first[i+1:] // the alias
		}
		if first != unique {
			sql += " ORDER BY " + first + []string{"", " DESC"}[rng.Intn(2)] + ", " + unique
		} else {
			sql += " ORDER BY " + unique + []string{"", " DESC"}[rng.Intn(2)]
		}
		if rng.Intn(2) == 0 {
			sql += fmt.Sprintf(" LIMIT %d", rng.Intn(40))
		}
	}
	return sql
}

func TestNativeEqualsServed(t *testing.T) {
	store := loweringStore(t)
	engine := relational.NewEngine(store)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", engine))

	stmts := append([]string(nil), loweringCorpus...)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		stmts = append(stmts, generateStatement(rng))
	}
	for _, sql := range stmts {
		want, _, err := engine.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: native: %v", sql, err)
		}
		ordered := strings.Contains(sql, "ORDER BY")
		wantRows := rowsOf(t, want, ordered)
		for _, level := range []int{0, 3} {
			got, _ := served(t, rt, sql, level)
			if !got.Schema().Equal(want.Schema()) {
				t.Errorf("%s\n L%d schema %s, native %s", sql, level, got.Schema(), want.Schema())
				continue
			}
			if gotRows := rowsOf(t, got, ordered); firstDiff(gotRows, wantRows) >= 0 {
				t.Errorf("%s\n L%d returns %d rows, native %d; first difference at row %d", sql, level,
					len(gotRows), len(wantRows), firstDiff(gotRows, wantRows))
			}
		}
	}
}

// loweringStatementsFile holds the statements TestNativeEqualsServed runs —
// the corpus, then the 300 generated from seed 31 — one a line, for suites of
// other packages to serve (internal/server's TestPreparedEqualsParsed).
const loweringStatementsFile = "testdata/lowering_statements.txt"

// TestLoweringStatementsFile holds loweringStatementsFile to the statements
// TestNativeEqualsServed runs; -update rewrites it.
func TestLoweringStatementsFile(t *testing.T) {
	stmts := append([]string(nil), loweringCorpus...)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		stmts = append(stmts, generateStatement(rng))
	}
	text := strings.Join(stmts, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(loweringStatementsFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got, err := os.ReadFile(loweringStatementsFile); err != nil || string(got) != text {
		t.Fatalf("%s is not the statements TestNativeEqualsServed runs (%v); rerun with -update", loweringStatementsFile, err)
	}
}

// firstDiff is the first index where a and b differ, -1 when they are equal.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestServedAccessPaths pins what the scan of a served statement reports at
// Level 3: the index the native planner would use, whatever the conjunct
// order or literal side, and a plain sequential scan when nothing is
// seekable. Below L2 no predicate reaches the scan.
func TestServedAccessPaths(t *testing.T) {
	store := loweringStore(t)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	scanOf := func(sql string, level int) string {
		_, rep := served(t, rt, sql, level)
		var scans []string
		for _, n := range rep.Nodes {
			if strings.Contains(n.Native, "Scan(") {
				scans = append(scans, n.Native)
			}
		}
		return strings.Join(scans, " ")
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT pid FROM patients WHERE age > 60 AND pid < 50", "IndexScan(patients.pid)"},
		{"SELECT pid FROM patients WHERE pid < 50 AND age > 60", "IndexScan(patients.pid)"},
		{"SELECT pid FROM patients WHERE 10 > pid", "IndexScan(patients.pid)"},
		{"SELECT aid FROM admissions WHERE ward = 'icu' AND 7 = admissions.pid", "IndexScan(admissions.pid)"},
		{"SELECT pid FROM patients WHERE age > 60", "SeqScan(patients)"},
		{"SELECT pid FROM patients WHERE pid < 5 OR pid > 9", "SeqScan(patients)"},
		{"SELECT pid FROM patients", "SeqScan(patients)"},
		{"SELECT id FROM events WHERE id >= 10", "SeqScan(events)"},
		{"SELECT pid, cost FROM patients JOIN visits ON vpid = pid WHERE pid < 20", "SeqScan(patients) SeqScan(visits)"},
	} {
		if got := scanOf(tc.sql, 3); got != tc.want {
			t.Errorf("%s\n L3 scans with %s, want %s", tc.sql, got, tc.want)
		}
		if got := scanOf(tc.sql, 1); strings.Contains(got, "IndexScan") {
			t.Errorf("%s\n L1 scans with %s: no predicate is pushed below L2", tc.sql, got)
		}
	}
}

// TestGroupBySelectListOrder: a grouped statement returns its select list —
// names and positions — on both routes, not the group-by operator's layout.
func TestGroupBySelectListOrder(t *testing.T) {
	engine := relational.NewEngine(loweringStore(t))
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", engine))
	const sql = "SELECT count(*) AS n, gender_male FROM patients GROUP BY gender_male"
	native, _, err := engine.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	compiled, _ := served(t, rt, sql, 3)
	for route, b := range map[string]*cast.Batch{"Engine.Query": native, "compiled program": compiled} {
		if got := b.Schema().String(); got != "(n int64, gender_male int64)" || b.Rows() != 2 {
			t.Errorf("%s returns %s with %d rows, want (n int64, gender_male int64) with 2", route, got, b.Rows())
		}
	}
}
