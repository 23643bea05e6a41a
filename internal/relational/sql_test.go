package relational

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"polystorepp/internal/cast"
)

func TestParseBasic(t *testing.T) {
	stmt, err := Parse("SELECT name, age FROM users WHERE age > 30 ORDER BY age DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From != "users" || len(stmt.Items) != 2 || stmt.Limit != 5 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Fatalf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Where == nil {
		t.Fatal("no where")
	}
}

func TestParseStar(t *testing.T) {
	stmt, err := Parse("SELECT * FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Star || stmt.Limit != -1 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse("SELECT name FROM orders JOIN users ON user_id = uid WHERE amount > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Joins) != 1 || stmt.Joins[0].Table != "users" {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt, err := Parse("SELECT count(*), sum(amount) AS total, avg(amount) FROM orders GROUP BY user_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if stmt.Items[0].Agg == nil || stmt.Items[0].Agg.Fn != AggCount {
		t.Fatal("count(*) not parsed")
	}
	if stmt.Items[1].Agg.As != "total" {
		t.Fatalf("alias = %q", stmt.Items[1].Agg.As)
	}
	if len(stmt.GroupBy) != 1 {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a + 1 * 2 = 3 AND b = 'x' OR NOT c")
	if err != nil {
		t.Fatal(err)
	}
	// Expect OR at the top: ((a+(1*2))=3 AND b='x') OR (NOT c)
	top, ok := stmt.Where.(Bin)
	if !ok || top.Op != OpOr {
		t.Fatalf("top = %v", stmt.Where)
	}
	left, ok := top.L.(Bin)
	if !ok || left.Op != OpAnd {
		t.Fatalf("left = %v", top.L)
	}
	if _, ok := top.R.(Not); !ok {
		t.Fatalf("right = %v", top.R)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE users SET x = 1",
		"SELECT FROM users",
		"SELECT * users",
		"SELECT * FROM users WHERE",
		"SELECT * FROM users LIMIT abc",
		"SELECT * FROM users trailing",
		"SELECT * FROM users WHERE name = 'unterminated",
		"SELECT sum(*) FROM t",
		"SELECT * FROM orders JOIN users ON user_id uid",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); !errors.Is(err, ErrSQL) {
			t.Fatalf("Parse(%q): want ErrSQL, got %v", sql, err)
		}
	}
}

func TestQueryEndToEnd(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 520)
	e := NewEngine(s)

	out, stats, err := e.Query(ctx, "SELECT name, age FROM users WHERE age >= 30 ORDER BY age LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 20 || out.Schema().Len() != 2 {
		t.Fatalf("result %d rows, schema %s", out.Rows(), out.Schema())
	}
	ages, _ := out.Ints(1)
	for i := 1; i < len(ages); i++ {
		if ages[i-1] > ages[i] {
			t.Fatal("not sorted")
		}
	}
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
}

func TestQueryJoinEndToEnd(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 100)
	e := NewEngine(s)
	out, _, err := e.Query(ctx, "SELECT oid, name FROM orders JOIN users ON user_id = uid WHERE uid < 10")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 30 { // 10 users x 3 orders
		t.Fatalf("rows = %d, want 30", out.Rows())
	}
}

func TestQueryReversedJoinColumns(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 50)
	e := NewEngine(s)
	// ON written with sides swapped relative to FROM/JOIN order.
	out, _, err := e.Query(ctx, "SELECT oid FROM orders JOIN users ON uid = user_id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestQueryAggregates(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 100)
	e := NewEngine(s)
	out, _, err := e.Query(ctx, "SELECT count(*) AS n, sum(amount) AS total FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 {
		t.Fatalf("rows = %d", out.Rows())
	}
	n, err := out.Ints(0)
	if err != nil || n[0] != 300 {
		t.Fatalf("count = %v, %v", n, err)
	}
	out, _, err = e.Query(ctx, "SELECT count(*) AS n FROM orders GROUP BY user_id")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 {
		t.Fatalf("groups = %d", out.Rows())
	}
}

func TestQueryUsesIndexScan(t *testing.T) {
	s := newTestStore(t, 2000)
	users, _ := s.Table("users")
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	ctx := context.Background()
	got, stats, err := e.Query(ctx, "SELECT name FROM users WHERE uid = 42")
	if err != nil {
		t.Fatal(err)
	}
	if scan := (OpStats{Kind: "IndexScan(users.uid)", RowsIn: 1, RowsOut: 1}); stats[0] != scan {
		t.Fatalf("statement does not seek the one row: %+v", stats)
	}
	// Results agree with an unindexed engine.
	s2 := newTestStore(t, 2000)
	e2 := NewEngine(s2)
	want, _, err := e2.Query(ctx, "SELECT name FROM users WHERE uid = 42")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("index plan and scan plan disagree")
	}
}

func TestQueryIndexRangeOperators(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 500)
	users, _ := s.Table("users")
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	for sql, want := range map[string]int{
		"SELECT uid FROM users WHERE uid < 10":    10,
		"SELECT uid FROM users WHERE uid <= 10":   11,
		"SELECT uid FROM users WHERE uid > 489":   10,
		"SELECT uid FROM users WHERE uid >= 489":  11,
		"SELECT uid FROM users WHERE 10 > uid":    10, // flipped literal
		"SELECT uid FROM users WHERE uid = 77":    1,
		"SELECT uid FROM users WHERE uid = 99999": 0,
	} {
		out, _, err := e.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if out.Rows() != want {
			t.Fatalf("%s: rows = %d, want %d", sql, out.Rows(), want)
		}
	}
}

// TestQueryIndexEqualsHeapAtFarKeys holds the seek to the heap's answer for
// keys at and beyond the old ±2^62 open-range sentinels and for literals at
// the int64 limits, where v±1 used to wrap.
func TestQueryIndexEqualsHeapAtFarKeys(t *testing.T) {
	ctx := context.Background()
	engines := make([]*Engine, 2) // heap, index
	for i := range engines {
		s := NewStore("far")
		tb, err := s.CreateTable("t", cast.MustSchema(cast.Column{Name: "k", Type: cast.Int64}))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{math.MinInt64, -(1 << 62) - 1, -1, 0, 1, (1 << 62) + 1, math.MaxInt64} {
			if err := tb.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			if err := tb.CreateBTreeIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		engines[i] = NewEngine(s)
	}
	for where, want := range map[string]int{
		"k < 0":                     3,
		"k > 0":                     3,
		"0 >= k":                    4,
		"k < -4611686018427387904":  2,
		"k > 4611686018427387904":   2,
		"k < -9223372036854775808":  0,
		"k <= -9223372036854775808": 1,
		"k > 9223372036854775807":   0,
		"k >= 9223372036854775807":  1,
	} {
		sql := "SELECT k FROM t WHERE " + where + " ORDER BY k"
		heap, _, err := engines[0].Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		index, _, err := engines[1].Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if heap.Rows() != want || !index.Equal(heap) {
			t.Errorf("%s: heap %d rows, index %d rows, want %d", sql, heap.Rows(), index.Rows(), want)
		}
	}
}

func TestQueryMissingTable(t *testing.T) {
	e := NewEngine(NewStore("x"))
	if _, _, err := e.Query(context.Background(), "SELECT a FROM nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
}

func TestQueryComputedColumns(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 10)
	e := NewEngine(s)
	out, _, err := e.Query(ctx, "SELECT uid, age * 2 AS double_age FROM users WHERE uid = 3")
	if err != nil {
		t.Fatal(err)
	}
	da, err := out.Ints(1)
	if err != nil || len(da) != 1 {
		t.Fatalf("double_age: %v %v", da, err)
	}
	ages, _ := s.MustTable(t, "users").Snapshot().Ints(1)
	if da[0] != ages[3]*2 {
		t.Fatalf("double_age = %d, want %d", da[0], ages[3]*2)
	}
}

// TestQueryIntArithOverflowFails: int64 arithmetic whose exact result the
// int64 range does not hold fails with ErrOverflow, as an integer SUM does,
// instead of wrapping (2 * MaxInt64 used to answer -2).
func TestQueryIntArithOverflowFails(t *testing.T) {
	e := NewEngine(newTestStore(t, 10))
	for _, q := range []string{
		"SELECT uid * 9223372036854775807 AS x FROM users WHERE uid = 2",
		"SELECT uid FROM users WHERE uid + 9223372036854775807 > 0",
		"SELECT uid, (0 - 9223372036854775807 - uid) AS x FROM users WHERE uid = 2",
		"SELECT uid, (0 - 9223372036854775807 - 1) / (uid - 3) AS x FROM users WHERE uid = 2",
	} {
		if _, _, err := e.Query(context.Background(), q); !errors.Is(err, ErrOverflow) {
			t.Errorf("%s: error %v, want ErrOverflow", q, err)
		}
	}
}

// MustTable is a test helper on Store.
func (s *Store) MustTable(t *testing.T, name string) *Table {
	t.Helper()
	tb, err := s.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestParseMinusAfterOperand: a '-' after an operand — a column, a literal or
// a closing parenthesis — is the minus operator, so id-1 reads as id - 1;
// anywhere else, before a digit, it is the sign of a number.
func TestParseMinusAfterOperand(t *testing.T) {
	id := ColRef{Name: "id"}
	lit := func(v int64) Expr { return Const{V: v} }
	sub := func(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }
	for sql, want := range map[string]Expr{
		"SELECT id-1 AS x FROM t":    sub(id, lit(1)),
		"SELECT (id)-1 AS x FROM t":  sub(id, lit(1)),
		"SELECT 2-1 AS x FROM t":     sub(lit(2), lit(1)),
		"SELECT 'a'-1 AS x FROM t":   sub(Const{V: "a"}, lit(1)),
		"SELECT id - -1 AS x FROM t": sub(id, lit(-1)),
		"SELECT id--1 AS x FROM t":   sub(id, lit(-1)),
		"SELECT -1 AS x FROM t":      lit(-1),
		"select -1 as x from t":      lit(-1),
		"SELECT id, -1 AS x FROM t":  lit(-1),
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if got := stmt.Items[len(stmt.Items)-1].Expr; got != want {
			t.Errorf("%s: item %v, want %v", sql, got, want)
		}
	}
	for sql, want := range map[string]Expr{
		"SELECT id FROM t WHERE id-1 > 0":            Bin{Op: OpGt, L: sub(id, lit(1)), R: lit(0)},
		"SELECT id FROM t WHERE id>-1":               Bin{Op: OpGt, L: id, R: lit(-1)},
		"SELECT id FROM t WHERE -1 < id":             Bin{Op: OpLt, L: lit(-1), R: id},
		"SELECT id FROM t WHERE NOT -1 < id":         Not{E: Bin{Op: OpLt, L: lit(-1), R: id}},
		"SELECT id FROM t WHERE id = 1 OR -1 = id-2": Bin{Op: OpOr, L: Bin{Op: OpEq, L: id, R: lit(1)}, R: Bin{Op: OpEq, L: lit(-1), R: sub(id, lit(2))}},
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if stmt.Where != want {
			t.Errorf("%s: where %v, want %v", sql, stmt.Where, want)
		}
	}
}

// TestParseNegativeLimit: LIMIT takes a count, never a sign; a negative one
// is refused, not read as "no limit".
func TestParseNegativeLimit(t *testing.T) {
	for _, sql := range []string{"SELECT * FROM t LIMIT -5", "SELECT * FROM t ORDER BY a LIMIT -1"} {
		for _, parse := range []func(string) error{
			func(sql string) error { _, err := Parse(sql); return err },
			func(sql string) error { _, _, err := ParseLifted(sql, nil); return err },
		} {
			if err := parse(sql); !errors.Is(err, ErrSQL) || !strings.Contains(err.Error(), "LIMIT wants a non-negative number") {
				t.Errorf("%s: %v", sql, err)
			}
		}
	}
	if stmt, err := Parse("SELECT * FROM t LIMIT 0"); err != nil || stmt.Limit != 0 {
		t.Fatalf("LIMIT 0: %+v, %v", stmt, err)
	}
}

// TestShapeKeysTheParse: statements differing only in their constants share
// a shape key and lex to the binds ParseLifted lifts; another type, another
// token or a refused literal does not.
func TestShapeKeysTheParse(t *testing.T) {
	shape := func(sql string) (string, []any, error) {
		key, binds, err := Shape(nil, sql, nil)
		return string(key), binds, err
	}
	base, _, err := shape("SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT id, value FROM events WHERE kind = 17 ORDER BY value DESC LIMIT 64",
		"SELECT id, value FROM events WHERE kind = -4 ORDER BY value DESC LIMIT 0",
		"SELECT id, value\nFROM events  WHERE kind=3 ORDER BY value DESC LIMIT 5",
	} {
		key, lexed, err := shape(sql)
		if err != nil || key != base {
			t.Errorf("%s: key %q (%v), want the shape of kind = 3", sql, key, err)
		}
		_, lifted, err := ParseLifted(sql, nil)
		if err != nil || !reflect.DeepEqual(lexed, lifted) {
			t.Errorf("%s: lexed %#v, ParseLifted %#v (%v)", sql, lexed, lifted, err)
		}
	}
	for _, sql := range []string{
		"SELECT id, value FROM events WHERE kind = 'a' ORDER BY value DESC LIMIT 5",
		"SELECT id, value FROM events WHERE kind = 3.5 ORDER BY value DESC LIMIT 5",
		"SELECT id, value FROM events WHERE kind = true ORDER BY value DESC LIMIT 5",
		"SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC",
		"SELECT id, value FROM events WHERE kind = 3 ORDER BY value ASC LIMIT 5",
		"SELECT id, value FROM events WHERE kind <= 3 ORDER BY value DESC LIMIT 5",
	} {
		if key, _, err := shape(sql); err != nil || key == base {
			t.Errorf("%s: shares the shape of kind = 3 (%v)", sql, err)
		}
	}
	minus, _, _ := shape("SELECT id-1 AS x FROM t")
	if spaced, _, _ := shape("SELECT id - 1 AS x FROM t"); minus != spaced {
		t.Error("id-1 and id - 1 lex differently")
	}
	_, binds, err := shape("SELECT a, 'x' AS s FROM t WHERE b = TRUE AND c > 1e3 LIMIT 7")
	if want := []any{"x", true, 1e3, int64(7)}; err != nil || !reflect.DeepEqual(binds, want) {
		t.Errorf("binds %#v (%v), want %#v", binds, err, want)
	}
	for _, sql := range []string{
		"SELECT * FROM t LIMIT -5",
		"SELECT * FROM t LIMIT 1.5",
		"SELECT * FROM t WHERE a = 1.2.3",
		"SELECT * FROM t WHERE a = 99999999999999999999",
		"SELECT * FROM t WHERE s = 'unterminated",
	} {
		if _, _, err := shape(sql); !errors.Is(err, ErrSQL) {
			t.Errorf("%s: Shape accepted a literal the parser refuses (%v)", sql, err)
		}
		if _, err := Parse(sql); !errors.Is(err, ErrSQL) {
			t.Errorf("%s: Parse accepted it (%v)", sql, err)
		}
	}
}

// TestValueShaped: ParseLifted reports the statements a literal's value
// shapes — a lone-literal WHERE, an unnamed select item named after its
// literal — and no other.
func TestValueShaped(t *testing.T) {
	for sql, want := range map[string]bool{
		"SELECT value * 2 FROM events":                  true,
		"SELECT id, 7 FROM events":                      true,
		"SELECT id FROM events WHERE 1":                 true,
		"SELECT id FROM events WHERE true":              true,
		"SELECT value * 2 AS v FROM events":             false,
		"SELECT value + id FROM events":                 false,
		"SELECT id FROM events WHERE kind = 1 LIMIT 3":  false,
		"SELECT count(*) FROM events WHERE value > 2.5": false,
	} {
		stmt, _, err := ParseLifted(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if stmt.ValueShaped != want {
			t.Errorf("%s: ValueShaped = %t, want %t", sql, stmt.ValueShaped, want)
		}
	}
}

// TestSQLErrorWording pins every error text the SQL frontend can produce as a
// literal, for Parse and ParseLifted alike, beside what Shape reports for the
// same statement ("" when Shape, which only lexes, accepts it).
func TestSQLErrorWording(t *testing.T) {
	for _, tc := range []struct{ sql, parse, shape string }{
		{"", `expected select, got ""`, ""},
		{"UPDATE users SET x = 1", `expected select, got "UPDATE"`, ""},
		{"SELECT FROM users", `unexpected keyword "FROM" in expression`, ""},
		{"SELECT a + FROM t", `unexpected keyword "FROM" in expression`, ""},
		{"SELECT a * FROM t", `unexpected keyword "FROM" in expression`, ""},
		{"SELECT * users", `expected from, got "users"`, ""},
		{"SELECT * FROM", `expected identifier, got ""`, ""},
		{"SELECT * FROM users trailing", `trailing input at "trailing"`, ""},
		{"SELECT * FROM users WHERE", `unexpected token ""`, ""},
		{"SELECT a FROM t WHERE NOT", `unexpected token ""`, ""},
		{"SELECT a FROM t WHERE a = 1 OR", `unexpected token ""`, ""},
		{"SELECT a FROM t WHERE a = 1 AND", `unexpected token ""`, ""},
		{"SELECT a FROM t WHERE a = )", `unexpected token ")"`, ""},
		{"SELECT a FROM t WHERE (a >) = 1", `unexpected token ")"`, ""},
		{"SELECT (a FROM t", `expected ")", got "FROM"`, ""},
		{"SELECT a FROM t WHERE (a > 1", `expected ")", got ""`, ""},
		{"SELECT sum(*) FROM t", `sum(*) not allowed`, ""},
		{"SELECT count(* FROM t", `expected ")", got "FROM"`, ""},
		{"SELECT count(1) FROM t", `expected identifier, got "1"`, ""},
		{"SELECT count(*) AS 1 FROM t", `expected identifier, got "1"`, ""},
		{"SELECT a AS 1 FROM t", `expected identifier, got "1"`, ""},
		{"SELECT * FROM a JOIN b", `expected on, got ""`, ""},
		{"SELECT * FROM a JOIN 1 ON x = y", `expected identifier, got "1"`, ""},
		{"SELECT * FROM a JOIN b ON 1 = y", `expected identifier, got "1"`, ""},
		{"SELECT * FROM a JOIN b ON x y", `expected "=", got "y"`, ""},
		{"SELECT * FROM a JOIN b ON x = 1", `expected identifier, got "1"`, ""},
		{"SELECT a FROM t GROUP a", `expected by, got "a"`, ""},
		{"SELECT a FROM t GROUP BY 1", `expected identifier, got "1"`, ""},
		{"SELECT a FROM t GROUP BY a,", `expected identifier, got ""`, ""},
		{"SELECT a FROM t ORDER a", `expected by, got "a"`, ""},
		{"SELECT a FROM t ORDER BY 1", `expected identifier, got "1"`, ""},
		{"SELECT a FROM t ORDER BY a,", `expected identifier, got ""`, ""},
		{"SELECT * FROM t LIMIT", `LIMIT wants a number`, ""},
		{"SELECT * FROM users LIMIT abc", `LIMIT wants a number`, ""},
		{"SELECT * FROM users LIMIT 1.5", `bad LIMIT "1.5"`, `bad LIMIT "1.5"`},
		{"SELECT * FROM users LIMIT 99999999999999999999", `bad LIMIT "99999999999999999999"`, `bad LIMIT "99999999999999999999"`},
		{"SELECT * FROM users LIMIT -5", `LIMIT wants a non-negative number, got -5`, `LIMIT wants a non-negative number, got -5`},
		{"SELECT a FROM t WHERE a = 1.2.3", `bad number "1.2.3"`, `bad number "1.2.3"`},
		{"SELECT a FROM t WHERE a = 1e999", `bad number "1e999"`, `bad number "1e999"`},
		{"SELECT a FROM t WHERE a = 99999999999999999999", `bad number "99999999999999999999"`, `bad number "99999999999999999999"`},
		{"SELECT * FROM users WHERE name = 'unterminated", `unterminated string`, `unterminated string`},
		{"SELECT count'x FROM t", `unterminated string`, `unterminated string`},
		// An unterminated string is found before any token, so it is what
		// a statement with an earlier error reports.
		{"SELECT a FROM t WHERE a = 1.2.3 AND s = 'x", `unterminated string`, `unterminated string`},
		{"SELECT FROM t WHERE s = 'x", `unterminated string`, `unterminated string`},
		{"SELECT * FROM t LIMIT 1.5 '", `unterminated string`, `unterminated string`},
		{"SELECT 'it''s' FROM t WHERE s = 'x", `unterminated string`, `unterminated string`},
	} {
		_, err := Parse(tc.sql)
		if got := sqlErrorText(err); got != tc.parse {
			t.Errorf("Parse(%q): %q, want %q", tc.sql, got, tc.parse)
		}
		if _, _, err := ParseLifted(tc.sql, nil); sqlErrorText(err) != tc.parse {
			t.Errorf("ParseLifted(%q): %v", tc.sql, err)
		}
		if _, _, err := Shape(nil, tc.sql, nil); sqlErrorText(err) != tc.shape {
			t.Errorf("Shape(%q): %q, want %q", tc.sql, sqlErrorText(err), tc.shape)
		}
	}
}

// sqlErrorText is an ErrSQL's text after "relational: sql: ", and "" for
// nil.
func sqlErrorText(err error) string {
	switch {
	case err == nil:
		return ""
	case !errors.Is(err, ErrSQL):
		return "not an ErrSQL: " + err.Error()
	}
	return strings.TrimPrefix(err.Error(), ErrSQL.Error()+": ")
}

// TestParseInvalidUTF8String: a string literal holding invalid UTF-8 reads
// each bad byte as U+FFFD, in Shape's binds as in the parsed constant.
func TestParseInvalidUTF8String(t *testing.T) {
	const sql = "SELECT a FROM t WHERE s = 'x\xffy'"
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Bin{Op: OpEq, L: ColRef{Name: "s"}, R: Const{V: "x�y"}}); stmt.Where != want {
		t.Fatalf("WHERE %v, want %v", stmt.Where, want)
	}
	if _, binds, err := Shape(nil, sql, nil); err != nil || !reflect.DeepEqual(binds, []any{"x�y"}) {
		t.Fatalf("Shape binds %q (%v)", binds, err)
	}
}
