package relational

import (
	"context"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
)

// benchTable builds a wide scan target (200k rows) so partition-parallel
// scans have real work per partition.
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

// scanFilter is scan -> filter over tab: the snapshot, then pred() at parts.
func scanFilter(tab *Table, parts int) (*cast.Batch, error) {
	in, _, err := Scan(context.Background(), tab, nil)
	if err != nil {
		return nil, err
	}
	return Filter(context.Background(), in, pred(), parts)
}

func benchFilter(b *testing.B, parts int) {
	tab := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanFilter(tab, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterSequential pins one partition — the pre-partitioning path.
func BenchmarkFilterSequential(b *testing.B) { benchFilter(b, 1) }

// BenchmarkFilterParallel lets the kernel fan out over the scan pool.
func BenchmarkFilterParallel(b *testing.B) { benchFilter(b, 0) }

func benchGroupBy(b *testing.B, parts int) {
	tab := benchTable(b)
	aggs := []AggSpec{
		{Fn: AggCount, Col: "", As: "n"},
		{Fn: AggSum, Col: "val", As: "total"},
		{Fn: AggMax, Col: "id", As: "hi"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := groupBy(context.Background(), tab.Snapshot(), []string{"grp"}, aggs, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBySequential pins one partition.
func BenchmarkGroupBySequential(b *testing.B) { benchGroupBy(b, 1) }

// BenchmarkGroupByParallel lets the aggregation fan out.
func BenchmarkGroupByParallel(b *testing.B) { benchGroupBy(b, 0) }

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

func benchHashJoin(b *testing.B, parts int) {
	left, right := benchJoinTables(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashJoin(context.Background(), left.Snapshot(), right.Snapshot(), "k", "k2", parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinSequential builds the 20 000-row table and probes the
// 200 000 rows at one partition.
func BenchmarkHashJoinSequential(b *testing.B) { benchHashJoin(b, 1) }

// BenchmarkHashJoinParallel lets the probe fan out over the scan pool (the
// build is one sequential pass either way). Auto gives the 200 000 probe rows
// one partition per pool slot, so on a single-core host this tracks
// BenchmarkHashJoinSequential, and with two slots the probe runs in halves.
func BenchmarkHashJoinParallel(b *testing.B) { benchHashJoin(b, 0) }

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

// BenchmarkFilterReadOneColumn is BenchmarkFilterSequential with a consumer:
// the 200k-row filter, then the sum of one column of what it kept — so a
// filter that defers its gather is charged for the column somebody reads.
func BenchmarkFilterReadOneColumn(b *testing.B) {
	tab := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, err := scanFilter(tab, 1)
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
		if _, err := GroupBy(context.Background(), in, groupCols, aggs, schema, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate40k is the ungrouped count, min, max and sum of the
// cold_analytic aggregate template over 40 000 rows at one partition.
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
		if out, err := Filter(ctx, in, pred, 1); err != nil || out.Rows() != 10_000 {
			b.Fatal(err)
		}
	}
}
