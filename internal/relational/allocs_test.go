//go:build !race

package relational

import (
	"context"
	"math"
	"runtime"
	"testing"

	"polystorepp/internal/cast"
)

// Allocation budgets live apart from the race runs: the race runtime
// allocates on its own account and would blur the counts.

// allocatedBytes returns the heap bytes one call of fn allocates: the least
// of several calls, so that a runtime goroutine allocating beside one of them
// does not count.
func allocatedBytes(fn func()) uint64 {
	fn() // warm pools and lazily built state
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestFilterAllocBudget: a filter whose kept rows are scattered allocates one
// selection list of exactly its survivor count and the header of the batch
// that remembers it — no bool vector over the input, no second list, no
// column: the rows are gathered by whoever reads them.
func TestFilterAllocBudget(t *testing.T) {
	b := allocBatch(t, 10_000, 8)
	pred := Bin{Op: OpLt, L: ColRef{Name: "value"}, R: Const{V: 20.0}}
	var kept *cast.Batch
	run := func() {
		var err error
		if kept, err = Filter(context.Background(), b, pred); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, run); allocs > 10 {
		t.Fatalf("filter of 10k rows: %.0f allocations, budget 10", allocs)
	}
	// 8 249 of the 10 000 rows survive: a 32 996-byte list, which the
	// allocator rounds up to its 40 960-byte class. One []bool over the input
	// would be another 10 240 bytes, one gathered column another 65 536.
	if got := allocatedBytes(run); kept.Rows() != 8249 || got < 40960 || got > 40960+2048 {
		t.Fatalf("filter of 10k rows keeping %d: %d bytes allocated, want the selection's 40960 and at most 2 KiB beside it", kept.Rows(), got)
	}
}

// TestRangeFilterAllocatesNoVector: a range predicate over clustered rows
// keeps one run, finds that out by counting, and hands on a view: under
// 1 KiB (the view's header is most of it), and nothing per row — one bool per
// input row would be 50 000 bytes, one row number per kept row up to 200 000.
func TestRangeFilterAllocatesNoVector(t *testing.T) {
	b := allocBatch(t, 50_000, 8)
	for _, k := range []int64{0, 12_345, 49_999, 50_000} {
		pred := Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: k}}
		got := allocatedBytes(func() {
			kept, err := Filter(context.Background(), b, pred)
			if err != nil || kept.Rows() != 50_000-int(k) {
				t.Fatalf("id >= %d kept %d rows: %v", k, kept.Rows(), err)
			}
		})
		if got >= 1<<10 {
			t.Errorf("id >= %d over 50k clustered rows: %d bytes allocated, budget 1 KiB", k, got)
		}
	}
}

// TestZoneScanAllocBudget: over 50 000 clustered rows (49 chunks), a scan the
// zone map prunes cuts one view of the heap, whatever the chunks it spans, and
// costs what a scan of the whole heap does; so does a predicate that prunes
// nothing. A filter keeping all of its input hands on the input itself, not a
// second view of it. A pruned scan and its filter allocate within a budget
// of eight per chunk kept, never per chunk of the heap (402 allocations when
// every chunk was read and each kept one cut twice; 17 on 2 cores).
func TestZoneScanAllocBudget(t *testing.T) {
	store := NewStore("db")
	tab, err := store.CreateTable("t", allocBatch(t, 1, 8).Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(allocBatch(t, 50_000, 8)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scan := func(pred Expr, kind string) func() {
		return func() {
			if _, got, err := Scan(ctx, tab, pred); err != nil || got != kind {
				t.Fatalf("%v: %s, %v; want %s", pred, got, err, kind)
			}
		}
	}
	whole := scan(nil, "SeqScan(t)")
	allocs, bytes := testing.AllocsPerRun(10, whole), allocatedBytes(whole)
	pruned := Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(40_000)}} // chunks 39..48
	for _, tc := range []struct {
		pred Expr
		kind string
	}{
		{Bin{Op: OpEq, L: ColRef{Name: "kind"}, R: Const{V: int64(3)}}, "SeqScan(t)"},
		{Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(0)}}, "SeqScan(t)"},
		{pruned, "ZoneScan(t.id)"},
		{Bin{Op: OpAnd, L: pruned, R: Bin{Op: OpLt, L: ColRef{Name: "id"}, R: Const{V: int64(1)}}}, "ZoneScan(t.id)"},
	} {
		run := scan(tc.pred, tc.kind)
		if a, b := testing.AllocsPerRun(10, run), allocatedBytes(run); a != allocs || b != bytes {
			t.Errorf("%s: %.0f allocations, %d bytes; the whole heap's scan %.0f, %d", tc.pred, a, b, allocs, bytes)
		}
	}
	in := tab.Snapshot()
	if kept, err := Filter(ctx, in, Bin{Op: OpGe, L: ColRef{Name: "id"}, R: Const{V: int64(0)}}); err != nil || kept != in {
		t.Fatalf("a filter keeping every row handed on a copy or a view: %v", err)
	}
	filtered := testing.AllocsPerRun(10, func() {
		in, _, _ := Scan(ctx, tab, pruned)
		if out, err := Filter(ctx, in, pruned); err != nil || out.Rows() != 10_000 {
			t.Fatalf("filtered pruned scan: %v", err)
		}
	})
	if budget := 8.0 * 11; filtered > budget {
		t.Fatalf("scan -> filter over the 10 chunks id >= 40000 keeps: %.0f allocations, budget %.0f", filtered, budget)
	}
}

// TestGroupByAllocBudget: an int64-keyed group-by over 10k rows allocates a
// number of times that does not grow with its groups — each per-group column
// is sized once, from the slot table — and bytes in proportion to its groups
// (state, sort keys and output columns), never to its rows.
func TestGroupByAllocBudget(t *testing.T) {
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "value", As: "total"}, {Fn: AggMax, Col: "value", As: "hi"}}
	for _, groups := range []int{64, 1024} {
		b := allocBatch(t, 10_000, groups)
		run := func() {
			if out, err := groupBy(context.Background(), b, []string{"kind"}, aggs); err != nil || out.Rows() != groups {
				t.Fatalf("group-by: %v", err)
			}
		}
		if allocs := testing.AllocsPerRun(10, run); allocs > 48 {
			t.Errorf("group-by of 10k rows into %d groups: %.0f allocations, budget 48", groups, allocs)
		}
		if got, budget := allocatedBytes(run), uint64(2048+112*groups); got > budget {
			t.Errorf("group-by of 10k rows into %d groups: %d bytes allocated, budget %d", groups, got, budget)
		}
	}
}

// TestHostileLimitAllocatesNothingFromN: a sort told LIMIT 9223372036854775807
// sizes nothing by the limit — the bounded top-K's heap holds min(n, rows)
// rows, and n ≥ rows takes the full sort. Over 50 000 rows the kernel
// allocates no more than the unlimited sort, and the statement no more than
// plain ORDER BY v plus the limit step's view and bookkeeping (under 1 KiB).
func TestHostileLimitAllocatesNothingFromN(t *testing.T) {
	store := NewStore("db")
	tab, err := store.CreateTable("t", allocBatch(t, 1, 8).Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(allocBatch(t, 50_000, 8)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := tab.Snapshot()
	order := []OrderItem{{Col: "value"}}
	sortBytes := func(limit int) uint64 {
		return allocatedBytes(func() {
			if out, err := Sort(ctx, in, order, limit); err != nil || out.Rows() != 50_000 {
				t.Fatalf("sort at limit %d: %v", limit, err)
			}
		})
	}
	if full, hostile := sortBytes(-1), sortBytes(math.MaxInt64); hostile > full {
		t.Fatalf("Sort at LIMIT MaxInt64: %d bytes, the unlimited sort %d", hostile, full)
	}
	e := NewEngine(store)
	queryBytes := func(sql string) uint64 {
		return allocatedBytes(func() {
			if out, _, err := e.Query(ctx, sql); err != nil || out.Rows() != 50_000 {
				t.Fatalf("%s: %v", sql, err)
			}
		})
	}
	plain := queryBytes("SELECT * FROM t ORDER BY value")
	if hostile := queryBytes("SELECT * FROM t ORDER BY value LIMIT 9223372036854775807"); hostile > plain+1<<10 {
		t.Fatalf("ORDER BY value LIMIT 9223372036854775807 over 50k rows: %d bytes, plain ORDER BY value %d", hostile, plain)
	}
}

// TestShapeAllocatesNothingPerToken: lexing a statement into its shape key
// and bind vector, into buffers it fits, allocates nothing — token texts are
// substrings of the statement, and integers in [0, 256) box for free.
func TestShapeAllocatesNothingPerToken(t *testing.T) {
	const sql = "SELECT id, value FROM events WHERE kind = 7 AND id-1 > 2 ORDER BY value DESC LIMIT 12"
	key := make([]byte, 0, 256)
	binds := make([]any, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if _, binds, err = Shape(key, sql, binds[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Shape: %.0f allocations, want 0", allocs)
	}
	if len(binds) != 4 {
		t.Fatalf("binds = %v", binds)
	}
}

// TestHashJoinAllocBudget: the join table is two arrays however many distinct
// keys the build holds. The same 20 000-row build joins a 20 000-row probe
// once with 20 000 distinct keys and once with 64 (63 unique, one shared by
// every other row); each probe row meets exactly one build row, out of
// order, in both, so the output is the same size. Both joins must allocate
// equally often, at most 64 times. The map-of-lists table took one
// allocation per distinct key.
func TestHashJoinAllocBudget(t *testing.T) {
	const rows = 20_000
	join := func(buildKey, probeKey func(i int) int64) func() {
		probe, build := make([]int64, rows), make([]int64, rows)
		for i := range build {
			probe[i], build[i] = probeKey(i), buildKey(i)
		}
		left, err := cast.BatchOf(cast.MustSchema(cast.Column{Name: "k", Type: cast.Int64}), probe)
		if err != nil {
			t.Fatal(err)
		}
		right, err := cast.BatchOf(cast.MustSchema(cast.Column{Name: "k2", Type: cast.Int64}), build)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			out, err := hashJoin(context.Background(), left, right, "k", "k2")
			if err != nil || out.Rows() != rows {
				t.Fatalf("join: %d rows, %v", out.Rows(), err)
			}
		}
	}
	distinct := testing.AllocsPerRun(10, join(
		func(i int) int64 { return int64(rows - 1 - i) },
		func(i int) int64 { return int64(i) }))
	few := testing.AllocsPerRun(10, join(
		func(i int) int64 { return int64(min(i, 63)) },
		func(i int) int64 { return int64(62 - i%63) }))
	if distinct != few || distinct > 64 {
		t.Fatalf("join allocations: %.0f over 20 000 distinct build keys, %.0f over 64; want equal and at most 64", distinct, few)
	}
}

// TestParseLiftedAllocBudget holds ParseLifted, over bench/'s four
// cold_analytic templates, to the allocations it took while every parser
// step could still return a lexer error: the lexer stays lazy and cuts no
// token slice, so a parse allocates the statement it builds and no more.
func TestParseLiftedAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		sql    string
		budget float64
	}{
		{"SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= 700 GROUP BY kind", 19},
		{"SELECT id, value FROM events WHERE id >= 700 ORDER BY value DESC LIMIT 50", 12},
		{"SELECT age, count(*) AS n FROM events JOIN patients ON kind = pid WHERE id >= 700 GROUP BY age", 15},
		{"SELECT count(*) AS n, min(value) AS lo, max(value) AS hi, sum(value) AS total FROM events WHERE id < 1400", 25},
	} {
		binds := make([]any, 0, 4)
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := ParseLifted(tc.sql, binds[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("ParseLifted(%q): %.0f allocations, budget %.0f", tc.sql, allocs, tc.budget)
		}
	}
}
