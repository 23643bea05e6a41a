package relational

import (
	"context"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
)

// partCounts are the fan-outs the ISSUE pins: sequential, small, odd (so
// ranges are unbalanced), and far more partitions than some inputs have rows
// (so empty and single-row partitions occur).
var partCounts = []int{1, 2, 7, 64}

// newParTable builds a table of n rows whose float values move in 0.25
// steps: all partial and total sums are exactly representable, so float
// aggregation is associative here and partition-parallel sums must be
// bit-identical to sequential ones.
func newParTable(t *testing.T, n int) *Table {
	t.Helper()
	s := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "grp", Type: cast.String},
		cast.Column{Name: "val", Type: cast.Float64},
	)
	store := NewStore("par")
	tab, err := store.CreateTable("rows", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		grp := fmt.Sprintf("g%d", i%13)
		val := float64(i%97) * 0.25
		if err := tab.Insert(int64(i), grp, val); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// whole runs k once over all of in at parts; at parts 1 it is the
// one-partition baseline every partitioned run is held to.
func whole(t *testing.T, in *cast.Batch, k kernel, parts int) *cast.Batch {
	t.Helper()
	out, err := k(context.Background(), in, parts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func pred() Expr {
	// id % nothing fancy: keep rows with id >= 100 AND val < 20.
	return Bin{Op: OpAnd,
		L: Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(100)}},
		R: Bin{Op: OpLt, L: ColRef{Name: "val"}, R: Const{V: 20.0}},
	}
}

func TestParallelFilterEquivalence(t *testing.T) {
	for _, rows := range []int{0, 1, 5000} {
		in := newParTable(t, rows).Snapshot()
		want := whole(t, in, filterK(pred()), 1)
		for _, parts := range partCounts {
			if got := whole(t, in, filterK(pred()), parts); !got.Equal(want) {
				t.Fatalf("rows=%d parts=%d: filter output differs from sequential", rows, parts)
			}
		}
	}
}

func TestParallelProjectEquivalence(t *testing.T) {
	items := []ProjItem{
		{E: ColRef{Name: "id"}, Name: "id"},
		{E: Bin{Op: OpMul, L: ColRef{Name: "val"}, R: Const{V: 2.0}}, Name: "twice"},
		{E: ColRef{Name: "grp"}, Name: "grp"},
	}
	for _, rows := range []int{0, 1, 5000} {
		in := newParTable(t, rows).Snapshot()
		project := projectK(t, in.Schema(), items)
		want := whole(t, in, project, 1)
		for _, parts := range partCounts {
			if got := whole(t, in, project, parts); !got.Equal(want) {
				t.Fatalf("rows=%d parts=%d: project output differs from sequential", rows, parts)
			}
		}
	}
}

// groupK binds a group-by to its arguments.
func groupK(groupCols []string, aggs []AggSpec) kernel {
	return func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
		return groupBy(ctx, b, groupCols, aggs, parts)
	}
}

func TestParallelGroupByEquivalence(t *testing.T) {
	aggs := []AggSpec{
		{Fn: AggCount, Col: "", As: "n"},
		{Fn: AggSum, Col: "val", As: "total"},
		{Fn: AggAvg, Col: "val", As: "mean"},
		{Fn: AggMin, Col: "id", As: "lo"},
		{Fn: AggMax, Col: "id", As: "hi"},
	}
	for _, rows := range []int{0, 1, 5000} {
		for _, groupCols := range [][]string{{"grp"}, nil} {
			in := newParTable(t, rows).Snapshot()
			group := groupK(groupCols, aggs)
			want := whole(t, in, group, 1)
			for _, parts := range partCounts {
				if got := whole(t, in, group, parts); !got.Equal(want) {
					t.Fatalf("rows=%d groups=%v parts=%d: group-by output differs from sequential", rows, groupCols, parts)
				}
			}
		}
	}
}

// TestParallelPipelineEquivalence runs filter -> group-by stacks with
// mismatched fan-outs and checks the composed result still matches the
// sequential baseline.
func TestParallelPipelineEquivalence(t *testing.T) {
	in := newParTable(t, 5000).Snapshot()
	group := groupK([]string{"grp"}, []AggSpec{
		{Fn: AggCount, Col: "", As: "n"},
		{Fn: AggSum, Col: "val", As: "total"},
	})
	want := whole(t, whole(t, in, filterK(pred()), 1), group, 1)
	for _, fp := range partCounts {
		for _, gp := range partCounts {
			if got := whole(t, whole(t, in, filterK(pred()), fp), group, gp); !got.Equal(want) {
				t.Fatalf("filterParts=%d groupParts=%d: pipeline output differs", fp, gp)
			}
		}
	}
}

// TestParallelSQLEquivalence checks Engine.Query end to end on a table large
// enough for automatic partitioning to engage, against the rows a plain loop
// over the inserted values keeps.
func TestParallelSQLEquivalence(t *testing.T) {
	const rows = 12000
	store := NewStore("sql-par")
	s := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "grp", Type: cast.String},
		cast.Column{Name: "val", Type: cast.Float64},
	)
	big, err := store.CreateTable("rows", s)
	if err != nil {
		t.Fatal(err)
	}
	grp := func(i int) string { return fmt.Sprintf("g%d", i%7) }
	val := func(i int) float64 { return float64(i%31) * 0.5 } // halves add exactly in any order
	for i := 0; i < rows; i++ {
		if err := big.Insert(int64(i), grp(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(store)

	grouped, _, err := e.Query(contextBG(), "SELECT grp, count(*) AS n, sum(val) AS total FROM rows WHERE id > 1000 GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	counts, totals := map[string]int64{}, map[string]float64{}
	for i := 1001; i < rows; i++ {
		counts[grp(i)]++
		totals[grp(i)] += val(i)
	}
	for r := 0; r < 7; r++ {
		row, err := grouped.Row(r)
		g := fmt.Sprintf("g%d", r)
		if err != nil || grouped.Rows() != 7 || row[0] != g || row[1] != counts[g] || row[2] != totals[g] {
			t.Fatalf("group %s of %d: %v, want count %d and total %v (%v)", g, grouped.Rows(), row, counts[g], totals[g], err)
		}
	}

	top, _, err := e.Query(contextBG(), "SELECT id, val FROM rows WHERE val < 3.0 ORDER BY id LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	for i := 0; i < rows && r < 50; i++ {
		if val(i) >= 3.0 {
			continue
		}
		if row, err := top.Row(r); err != nil || row[0] != int64(i) || row[1] != val(i) {
			t.Fatalf("row %d: %v, want id %d (%v)", r, row, i, err)
		}
		r++
	}
	if top.Rows() != 50 {
		t.Fatalf("LIMIT 50 returns %d rows", top.Rows())
	}
}

func contextBG() context.Context { return context.Background() }
