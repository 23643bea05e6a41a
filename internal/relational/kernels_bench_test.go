package relational

import (
	"context"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
)

// benchTable builds a wide scan target (200k rows).
func benchTable(b *testing.B) *Table {
	b.Helper()
	s := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "grp", Type: cast.String},
		cast.Column{Name: "val", Type: cast.Float64},
	)
	store := NewStore("bench")
	tab, err := store.CreateTable("rows", s)
	if err != nil {
		b.Fatal(err)
	}
	batch := cast.NewBatch(s, 200_000)
	for i := 0; i < 200_000; i++ {
		if err := batch.AppendRow(int64(i), fmt.Sprintf("g%d", i%19), float64(i%101)*0.25); err != nil {
			b.Fatal(err)
		}
	}
	if err := tab.InsertBatch(batch); err != nil {
		b.Fatal(err)
	}
	return tab
}

// pred keeps the rows with id >= 100 AND val < 20.
func pred() Expr {
	return Bin{Op: OpAnd,
		L: Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(100)}},
		R: Bin{Op: OpLt, L: ColRef{Name: "val"}, R: Const{V: 20.0}},
	}
}

// scanFilter is scan -> filter over tab: the snapshot, then pred().
func scanFilter(tab *Table) (*cast.Batch, error) {
	in, _, err := Scan(context.Background(), tab, nil)
	if err != nil {
		return nil, err
	}
	return Filter(context.Background(), in, pred())
}

// BenchmarkFilter is scan -> filter over the 200k rows.
func BenchmarkFilter(b *testing.B) {
	tab := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanFilter(tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBy is count, sum and max over 19 string groups of the 200k
// rows.
func BenchmarkGroupBy(b *testing.B) {
	tab := benchTable(b)
	aggs := []AggSpec{
		{Fn: AggCount, Col: "", As: "n"},
		{Fn: AggSum, Col: "val", As: "total"},
		{Fn: AggMax, Col: "id", As: "hi"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := groupBy(context.Background(), tab.Snapshot(), []string{"grp"}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJoinTables builds a 200k-row probe table and a 20k-row build table
// of distinct keys with ~50% probe hit rate, so the build, the probe and the
// output all have real work.
func benchJoinTables(b *testing.B) (*Table, *Table) {
	b.Helper()
	store := NewStore("join-bench")
	ls := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "k", Type: cast.Int64},
		cast.Column{Name: "val", Type: cast.Float64},
	)
	left, err := store.CreateTable("probe", ls)
	if err != nil {
		b.Fatal(err)
	}
	lb := cast.NewBatch(ls, 200_000)
	for i := 0; i < 200_000; i++ {
		if err := lb.AppendRow(int64(i), int64(i%40_000), float64(i%101)*0.25); err != nil {
			b.Fatal(err)
		}
	}
	if err := left.InsertBatch(lb); err != nil {
		b.Fatal(err)
	}
	rs := cast.MustSchema(
		cast.Column{Name: "rid", Type: cast.Int64},
		cast.Column{Name: "k2", Type: cast.Int64},
		cast.Column{Name: "tag", Type: cast.String},
	)
	right, err := store.CreateTable("build", rs)
	if err != nil {
		b.Fatal(err)
	}
	rb := cast.NewBatch(rs, 20_000)
	for i := 0; i < 20_000; i++ {
		if err := rb.AppendRow(int64(i), int64(i), fmt.Sprintf("t%d", i%13)); err != nil {
			b.Fatal(err)
		}
	}
	if err := right.InsertBatch(rb); err != nil {
		b.Fatal(err)
	}
	return left, right
}

// BenchmarkHashJoin builds the 20 000-row table and probes the 200 000 rows.
func BenchmarkHashJoin(b *testing.B) {
	left, right := benchJoinTables(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashJoin(context.Background(), left.Snapshot(), right.Snapshot(), "k", "k2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortBy50k sorts a 50k-row table on a float key, descending, with
// an int tiebreak — the cold_analytic ORDER BY shape.
func BenchmarkSortBy50k(b *testing.B) {
	in, err := benchTable(b).Snapshot().ViewRange(0, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SortBy(-1, cast.SortKey{Col: "val", Desc: true}, cast.SortKey{Col: "id"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortLimit50 is ORDER BY … LIMIT 50 out to the wire as a statement
// is served: the sort told the limit keeps the first 50 of the same 50k rows
// (a bounded top-K, no full permutation), and they are encoded. Only the 50
// are ever gathered.
func BenchmarkSortLimit50(b *testing.B) {
	in, err := benchTable(b).Snapshot().ViewRange(0, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	order := []OrderItem{{Col: "val", Desc: true}, {Col: "id"}}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := Sort(ctx, in, order, 50)
		if err != nil {
			b.Fatal(err)
		}
		if buf, err = top.AppendJSONRows(buf[:0], 0, top.Rows()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterReadOneColumn is BenchmarkFilter with a consumer:
// the 200k-row filter, then the sum of one column of what it kept — so a
// filter that defers its gather is charged for the column somebody reads.
func BenchmarkFilterReadOneColumn(b *testing.B) {
	tab := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, err := scanFilter(tab)
		if err != nil {
			b.Fatal(err)
		}
		vals, err := kept.Floats(2)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if sum <= 0 {
			b.Fatal("nothing kept")
		}
	}
}

// allocBatch is n rows of id (0..n-1), kind (id*31 mod groups: all groups
// occur once n ≥ groups, 31 being prime) and value (a multiple of 0.25, so
// every float sum over it is exact).
func allocBatch(t testing.TB, n, groups int) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	), n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), int64((i*31)%groups), float64(i%97)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

var sumSink float64

// BenchmarkSumLoop40k is the bare loop the aggregate benches are read
// against: one float sum over the 40 000 values they aggregate, in the same
// process, so a kernel's ns/op over this one's is a ratio a noisy host moves
// far less than either number.
func BenchmarkSumLoop40k(b *testing.B) {
	vals, err := allocBatch(b, 40_000, 97).Floats(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		sumSink = s
	}
}

func benchAggregate(b *testing.B, groupCols []string, aggs []AggSpec) {
	in := allocBatch(b, 40_000, 97)
	schema, err := GroupBySchema(in.Schema(), groupCols, aggs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupBy(context.Background(), in, groupCols, aggs, schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate40k is the ungrouped count, min, max and sum of the
// cold_analytic aggregate template over 40 000 rows.
func BenchmarkAggregate40k(b *testing.B) {
	benchAggregate(b, nil, []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggMin, Col: "value", As: "lo"},
		{Fn: AggMax, Col: "value", As: "hi"},
		{Fn: AggSum, Col: "value", As: "total"},
	})
}

// BenchmarkGroupBy40k is count and sum over 97 int64 groups of the same rows.
func BenchmarkGroupBy40k(b *testing.B) {
	benchAggregate(b, []string{"kind"}, []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "value", As: "total"},
	})
}

// BenchmarkZoneScanFilter is scan -> filter for id >= 190000 over the same
// 200k clustered rows: the zone map leaves the scan the last 11 of the heap's
// 196 chunks, as one view, and the filter keeps a run of it.
func BenchmarkZoneScanFilter(b *testing.B) {
	tab := benchTable(b)
	ctx := context.Background()
	pred := Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(190_000)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, kind, err := Scan(ctx, tab, pred)
		if err != nil || kind != "ZoneScan(rows.id)" {
			b.Fatal(kind, err)
		}
		if out, err := Filter(ctx, in, pred); err != nil || out.Rows() != 10_000 {
			b.Fatal(err)
		}
	}
}
