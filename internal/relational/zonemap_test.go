package relational

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"polystorepp/internal/cast"
)

func zoneSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "ts", Type: cast.Timestamp},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "s", Type: cast.String},
	)
}

// zoneRow is row i of a zone test table whose id column is id: ts is
// clustered with duplicates, f and s cycle.
func zoneRow(i int, id int64) []any {
	return []any{id, int64(i / 100), float64(i%13) * 0.5, fmt.Sprint("s", i%5)}
}

// zoneTable loads n rows into a new table zt of s: the first half by
// InsertBatch, the rest by Insert one row at a time, so both appends must keep
// the zone map.
func zoneTable(t testing.TB, s *Store, n int, id func(i int) int64) *Table {
	t.Helper()
	tab, err := s.CreateTable("zt", zoneSchema())
	if err != nil {
		t.Fatal(err)
	}
	half := cast.NewBatch(tab.Schema(), n/2)
	for i := 0; i < n/2; i++ {
		if err := half.AppendRow(zoneRow(i, id(i))...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.InsertBatch(half); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := tab.Insert(zoneRow(i, id(i))...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// zonePreds is the predicate corpus over a table holding the values vals:
// every comparison operator against each value with the literal on either
// side, on id and ts; ANDs of two, contradictory ranges and the qualified
// zt.id among them; and conjuncts no zone serves — Float64 and String
// columns, a float literal against an integer column, OR, NOT.
func zonePreds(vals []int64) []Expr {
	col := func(name string) Expr { return ColRef{Name: name} }
	lit := func(v any) Expr { return Const{V: v} }
	var preds []Expr
	for _, name := range []string{"id", "ts"} {
		for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			for _, v := range vals {
				preds = append(preds, Bin{op, col(name), lit(v)}, Bin{op, lit(v), col(name)})
			}
		}
	}
	for i, a := range vals {
		b := vals[(i+3)%len(vals)]
		preds = append(preds,
			Bin{OpAnd, Bin{OpGe, col("id"), lit(a)}, Bin{OpLe, col("id"), lit(b)}},
			Bin{OpAnd, Bin{OpGt, col("id"), lit(a)}, Bin{OpLt, col("id"), lit(a)}},
			Bin{OpAnd, Bin{OpLt, lit(b), col("ts")}, Bin{OpGt, lit(a), col("zt.id")}},
			Bin{OpAnd, Bin{OpLt, col("f"), lit(3.0)}, Bin{OpGe, col("id"), lit(a)}},
			Bin{OpAnd, Bin{OpEq, col("s"), lit("s1")}, Bin{OpLe, lit(b), col("id")}},
			Bin{OpOr, Bin{OpLt, col("id"), lit(a)}, Bin{OpGt, col("id"), lit(b)}},
			Not{Bin{OpLt, col("id"), lit(a)}},
		)
	}
	return append(preds,
		Bin{OpLt, col("f"), lit(2.5)},
		Bin{OpGt, lit(2.5), col("f")},
		Bin{OpEq, col("s"), lit("s3")},
		Bin{OpLt, col("id"), lit(5.5)},
	)
}

// zoneLayout is a zone test table: n rows whose id column is id(i).
type zoneLayout struct {
	name string
	n    int
	id   func(i int) int64
}

// zoneTables are the layouts the zone map must prune correctly over.
func zoneTables() []zoneLayout {
	rng := rand.New(rand.NewSource(7))
	random := make([]int64, 3*ChunkRows+17)
	for i := range random {
		random[i] = rng.Int63n(1<<20) - 1<<19
	}
	clustered := func(i int) int64 { return int64(i) }
	return []zoneLayout{
		{"clustered", 3*ChunkRows + 17, clustered},
		{"reverse-clustered", 3*ChunkRows + 17, func(i int) int64 { return int64(3*ChunkRows - i) }},
		{"random", len(random), func(i int) int64 { return random[i] }},
		{"constant", 2*ChunkRows + 5, func(int) int64 { return 7 }},
		{"int64-limits", 4 * ChunkRows, func(i int) int64 {
			return []int64{math.MinInt64, math.MinInt64 + int64(i%3), math.MaxInt64 - int64(i%3), math.MaxInt64}[i/ChunkRows]
		}},
		{"empty", 0, clustered},
		{"partial-last-chunk", ChunkRows + 1, clustered},
		{"chunk-multiple", 4 * ChunkRows, clustered},
	}
}

// zoneValues are the literals the corpus compares with over a table of n
// rows: the ids around chunk boundaries, and the int64 limits and their
// neighbours.
func zoneValues(n int, id func(i int) int64) []int64 {
	vals := []int64{0, 7, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, i := range []int{0, ChunkRows - 1, ChunkRows, n / 2, n - 1} {
		if i >= 0 && i < n {
			vals = append(vals, id(i), id(i)+1, id(i)-1)
		}
	}
	return vals
}

// TestZoneScanEqualsSeqScan: whatever path the scan takes over whatever
// layout, its rows filtered by the predicate are row for row those of the
// heap snapshot filtered by it. A scan that prunes reads fewer rows than the
// heap; one that does not is the snapshot, and a predicate with no integer
// conjunct never prunes.
func TestZoneScanEqualsSeqScan(t *testing.T) {
	ctx := context.Background()
	for _, tc := range zoneTables() {
		tab := zoneTable(t, NewStore("db"), tc.n, tc.id)
		pruned := 0
		for _, pred := range zonePreds(zoneValues(tc.n, tc.id)) {
			want, err := Filter(ctx, tab.Snapshot(), pred)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, pred, err)
			}
			scanned, kind, err := Scan(ctx, tab, pred)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, pred, err)
			}
			switch {
			case kind == "SeqScan(zt)" && scanned.Rows() == tc.n:
			case strings.HasPrefix(kind, "ZoneScan(zt.") && scanned.Rows() < tc.n:
				pruned++
			default:
				t.Fatalf("%s: %s: %s of %d rows over a heap of %d", tc.name, pred, kind, scanned.Rows(), tc.n)
			}
			got, err := Filter(ctx, scanned, pred)
			if err != nil || !got.Equal(want) {
				t.Fatalf("%s: %s over %s: %d rows, want %d (%v)", tc.name, pred, kind, got.Rows(), want.Rows(), err)
			}
		}
		if tc.n > ChunkRows && pruned == 0 {
			t.Errorf("%s: no predicate pruned a chunk", tc.name)
		}
		for _, pred := range zonePreds(nil) { // no integer literal: nothing to prune by
			if _, kind := tab.SeekRange(pred); kind != "SeqScan(zt)" {
				t.Errorf("%s: %s reads %s", tc.name, pred, kind)
			}
		}
	}
}

// TestZonesRebuiltByRecovery: the zone map is derived state and never
// persisted. WAL replay and snapshot Restore rebuild it through the same
// append hook, so a recovered table holds the zones of the one that was
// loaded and prunes exactly as it does.
func TestZonesRebuiltByRecovery(t *testing.T) {
	src := NewStore("db")
	var records [][]byte
	src.SetJournal(func(rec []byte) { records = append(records, bytes.Clone(rec)) })
	const n = 3*ChunkRows + 17
	id := func(i int) int64 { return int64(i) }
	loaded := zoneTable(t, src, n, id)
	src.SetJournal(nil)

	replayed := NewStore("db")
	for _, rec := range records {
		if _, err := replayed.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewStore("db")
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"replayed": replayed, "restored": restored} {
		tab, err := s.Table("zt")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab.zones, loaded.zones) {
			t.Fatalf("%s zones differ from the loaded table's", name)
		}
		pruned := 0
		for _, pred := range zonePreds(zoneValues(n, id)) {
			want, wantKind := loaded.SeekRange(pred)
			got, kind := tab.SeekRange(pred)
			if kind != wantKind || !got.Equal(want) {
				t.Fatalf("%s: %s reads %s of %d rows, the loaded table %s of %d", name, pred, kind, got.Rows(), wantKind, want.Rows())
			}
			if strings.HasPrefix(kind, "ZoneScan") {
				pruned++
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: no predicate pruned", name)
		}
	}
}

// TestZoneScanUnderConcurrentInserts: a pruned scan that runs beside
// concurrent Insert and InsertBatch reads one snapshot and drops none of its
// rows. Every appended id is above the predicate's bound, so over a snapshot
// of m rows the filter keeps exactly rows [from, m) of the heap, in heap
// order (-race checks that the zones are read and written under the table
// lock).
func TestZoneScanUnderConcurrentInserts(t *testing.T) {
	ctx := context.Background()
	const start, more, from = 3 * ChunkRows, 2 * ChunkRows, ChunkRows + 10
	tab := zoneTable(t, NewStore("db"), start, func(i int) int64 { return int64(i) })
	pred := Bin{OpGe, ColRef{Name: "id"}, Const{V: int64(from)}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := start; i < start+more/2; i++ {
			if err := tab.Insert(zoneRow(i, int64(i))...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := start + more/2; i < start+more; i += 7 {
			b := cast.NewBatch(tab.Schema(), 7)
			for j := i; j < i+7; j++ {
				if err := b.AppendRow(zoneRow(j, int64(j))...); err != nil {
					t.Error(err)
					return
				}
			}
			if err := tab.InsertBatch(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Scan until the writers are done, and once more after.
	last := 0
	for round, writing := 0, true; writing; round++ {
		select {
		case <-done:
			writing = false
		default:
		}
		scanned, kind, err := Scan(ctx, tab, pred)
		if err != nil || kind != "ZoneScan(zt.id)" {
			t.Fatalf("round %d: %s: %v", round, kind, err)
		}
		kept, err := Filter(ctx, scanned, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := kept.Ints(0)
		heap, _ := tab.Snapshot().Ints(0) // taken later: holds the scan's rows as a prefix
		if len(got) < start-from || len(got) < last || !slices.Equal(got, heap[from:from+len(got)]) {
			t.Fatalf("round %d: kept %d rows (last round %d), not heap rows [%d, %d)", round, len(got), last, from, from+len(got))
		}
		last = len(got)
	}
	if rows := tab.Snapshot().Rows(); last != rows-from {
		t.Fatalf("the scan after the writers kept %d rows, want %d", last, rows-from)
	}
}
