package relational

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// render spells a step list compactly, one token per step, so a clause
// combination's lowering reads as one line.
func render(steps []Step) string {
	var out []string
	for _, st := range steps {
		switch st.Kind {
		case StepScan:
			hint := ""
			if st.Pred != nil {
				hint = "?" + st.Pred.String()
			}
			out = append(out, "scan("+st.Table+hint+")")
		case StepJoin:
			out = append(out, fmt.Sprintf("join(%s,%s=%s)", st.Table, st.LeftCol, st.RightCol))
		case StepFilter:
			out = append(out, "filter"+st.Pred.String())
		case StepGroupBy:
			aggs := make([]string, len(st.Aggs))
			for i, a := range st.Aggs {
				aggs[i] = a.As
			}
			out = append(out, fmt.Sprintf("group(%s;%s)", strings.Join(st.GroupCols, ","), strings.Join(aggs, ",")))
		case StepProject:
			items := make([]string, len(st.Items))
			for i, it := range st.Items {
				items[i] = it.E.String() + ">" + it.Name
			}
			out = append(out, "project("+strings.Join(items, ",")+")")
		case StepSort:
			keys := make([]string, len(st.OrderBy))
			for i, o := range st.OrderBy {
				keys[i] = o.Col
				if o.Desc {
					keys[i] += "-"
				}
			}
			limit := ""
			if st.N >= 0 {
				limit = fmt.Sprintf(";%d", st.N)
			}
			out = append(out, "sort("+strings.Join(keys, ",")+limit+")")
		case StepLimit:
			out = append(out, fmt.Sprintf("limit(%d)", st.N))
		}
	}
	return strings.Join(out, " ")
}

// TestSteps pins the one lowering of a SELECT for every clause combination:
// which steps exist, in which order, and when a grouped statement needs the
// select-list projection.
func TestSteps(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"SELECT * FROM t", "scan(t)"},
		{"SELECT a, b AS x FROM t", "scan(t) project(a>a,b>x)"},
		{"SELECT * FROM t WHERE a > 1", "scan(t?(a > 1)) filter(a > 1)"},
		{"SELECT a FROM t WHERE a > 1 AND 3 > b", "scan(t?((a > 1) AND (3 > b))) filter((a > 1) AND (3 > b)) project(a>a)"},
		{"SELECT * FROM t JOIN u ON a = b JOIN v ON c = a WHERE a = 1",
			"scan(t) join(u,a=b) join(v,c=a) filter(a = 1)"},
		{"SELECT * FROM t ORDER BY a DESC, t.b", "scan(t) sort(a-,t.b)"},
		{"SELECT * FROM t LIMIT 0", "scan(t) limit(0)"},
		{"SELECT a + 1 AS s FROM t WHERE a < 9 ORDER BY s LIMIT 3",
			"scan(t?(a < 9)) filter(a < 9) project((a + 1)>s) sort(s;3) limit(3)"},
		// Grouped: the select list equal to the group-by output needs nothing more.
		{"SELECT count(*) AS n FROM t", "scan(t) group(;n)"},
		{"SELECT g, count(*) AS n, max(a) AS m FROM t GROUP BY g", "scan(t) group(g;n,m)"},
		{"SELECT t.g, count(*) AS n FROM t GROUP BY t.g", "scan(t) group(t.g;n)"},
		{"SELECT * FROM t GROUP BY g", "scan(t) group(g;)"},
		// A renamed, reordered or dropped column does.
		{"SELECT g AS k, count(*) AS n FROM t GROUP BY g", "scan(t) group(g;n) project(g>k,n>n)"},
		{"SELECT count(*) AS n, g FROM t GROUP BY g", "scan(t) group(g;n) project(n>n,g>g)"},
		{"SELECT count(*) AS n FROM t GROUP BY g", "scan(t) group(g;n) project(n>n)"},
		{"SELECT h, g, sum(a) AS s FROM t GROUP BY g, h", "scan(t) group(g,h;s) project(h>h,g>g,s>s)"},
		{"SELECT g + 1 AS k, min(a) AS m FROM t WHERE a != 2 GROUP BY g ORDER BY k DESC LIMIT 5",
			"scan(t?(a != 2)) filter(a != 2) group(g;m) project((g + 1)>k,m>m) sort(k-;5) limit(5)"},
	} {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := render(stmt.Steps(nil)); got != tc.want {
			t.Errorf("%s\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}

// TestSeekRange pins the access-path rule where the catalog is: how one
// conjunct reads as a key range (keyRange), in either literal orientation and
// only for an integer comparison, and which conjunct seeks — the first on an
// indexed column, wherever it stands.
func TestSeekRange(t *testing.T) {
	users, err := newTestStore(t, 10).Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	where := func(sql string) Expr {
		t.Helper()
		stmt, err := Parse("SELECT * FROM users WHERE " + sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return stmt.Where
	}
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, tc := range []struct {
		where  string
		lo, hi int64
		ok     bool
	}{
		{"uid = 5", 5, 5, true},
		{"uid < 5", minI, 4, true},
		{"uid <= 5", minI, 5, true},
		{"uid > 5", 6, maxI, true},
		{"uid >= 5", 5, maxI, true},
		{"5 > uid", minI, 4, true},
		{"5 <= uid", 5, maxI, true},
		{"5 = users.uid", 5, 5, true},
		// At the int64 limits the ±1 saturates instead of wrapping.
		{"uid < -9223372036854775808", minI, minI, true},
		{"uid <= -9223372036854775808", minI, minI, true},
		{"uid > 9223372036854775807", maxI, maxI, true},
		{"uid >= 9223372036854775807", maxI, maxI, true},
		{"9223372036854775807 < uid", maxI, maxI, true},
		// No range: not a comparison, not an ordering one, not an integer
		// literal, not a column against a literal.
		{"uid < 5 OR uid > 7", 0, 0, false},
		{"NOT uid < 5", 0, 0, false},
		{"uid != 5", 0, 0, false},
		{"uid < 5.5", 0, 0, false},
		{"uid = age", 0, 0, false},
		{"uid + 1 < 5", 0, 0, false},
	} {
		col, lo, hi, ok := keyRange(where(tc.where))
		if ok != tc.ok || (ok && (col != "uid" || lo != tc.lo || hi != tc.hi)) {
			t.Errorf("%s: got (%q, %d, %d, %v), want (uid, %d, %d, %v)", tc.where, col, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
	// The first conjunct on an indexed column seeks, wherever it stands; the
	// row count tells its range. The 10 rows are one chunk, so without a
	// seek the scan reads the heap.
	for _, tc := range []struct {
		where, kind string
		rows        int
	}{
		{"age > 60 AND uid < 5", "IndexScan(users.uid)", 5},
		{"uid < 5 AND age > 60", "IndexScan(users.uid)", 5},
		{"name = 'x' AND (7 < uid AND uid < 3)", "IndexScan(users.uid)", 2},
		{"age > 60", "SeqScan(users)", 10},
		{"uid < 5 OR uid > 7", "SeqScan(users)", 10},
	} {
		if rows, kind := users.SeekRange(where(tc.where)); kind != tc.kind || rows.Rows() != tc.rows {
			t.Errorf("%s: %s of %d rows, want %s of %d", tc.where, kind, rows.Rows(), tc.kind, tc.rows)
		}
	}
	if rows, kind := users.SeekRange(nil); kind != "SeqScan(users)" || rows.Rows() != 10 {
		t.Errorf("a scan without a predicate: %s of %d rows", kind, rows.Rows())
	}
}
