package relational

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"polystorepp/internal/cast"
)

func usersSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "uid", Type: cast.Int64},
		cast.Column{Name: "age", Type: cast.Int64},
		cast.Column{Name: "name", Type: cast.String},
		cast.Column{Name: "score", Type: cast.Float64},
	)
}

func ordersSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "oid", Type: cast.Int64},
		cast.Column{Name: "user_id", Type: cast.Int64},
		cast.Column{Name: "amount", Type: cast.Float64},
	)
}

// newTestStore builds a store with users (n rows) and orders (3 per user).
func newTestStore(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore("db-test")
	users, err := s.CreateTable("users", usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	orders, err := s.CreateTable("orders", ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	oid := int64(0)
	for i := 0; i < n; i++ {
		name := "user-" + string(rune('a'+i%26))
		if err := users.Insert(int64(i), int64(18+rng.Intn(60)), name, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := orders.Insert(oid, int64(i), float64(rng.Intn(500))); err != nil {
				t.Fatal(err)
			}
			oid++
		}
	}
	return s
}

// hashJoin is HashJoin without the join's report name.
func hashJoin(ctx context.Context, left, right *cast.Batch, leftCol, rightCol string) (*cast.Batch, error) {
	out, _, err := HashJoin(ctx, left, right, leftCol, rightCol)
	return out, err
}

// groupBy resolves the output schema and aggregates in.
func groupBy(ctx context.Context, in *cast.Batch, groupCols []string, aggs []AggSpec) (*cast.Batch, error) {
	schema, err := GroupBySchema(in.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return GroupBy(ctx, in, groupCols, aggs, schema)
}

func TestStoreCreateAndLookup(t *testing.T) {
	s := NewStore("db1")
	if s.Name() != "db1" {
		t.Fatal("store name")
	}
	if _, err := s.CreateTable("t", usersSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", usersSchema()); !errors.Is(err, ErrTableExist) {
		t.Fatalf("dup table: %v", err)
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
}

// TestSnapshotIsolatedFromInserts pins the snapshot contract the serving
// layer's subplan cache relies on: a snapshot taken at one data version keeps
// showing exactly that version's rows — and stays race-free to read — while
// writers append concurrently.
func TestSnapshotIsolatedFromInserts(t *testing.T) {
	s := NewStore("db")
	tb, err := s.CreateTable("users", usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tb.Insert(int64(i), int64(20+i%50), "u", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	snap := tb.Snapshot()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 100; i < 1100; i++ {
			if err := tb.Insert(int64(i), int64(99), "w", 2.0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Read the snapshot while the writer runs (-race validates safety).
	for round := 0; round < 50; round++ {
		if snap.Rows() != 100 {
			t.Fatalf("snapshot grew to %d rows", snap.Rows())
		}
		ids, err := snap.Ints(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if id != int64(i) {
				t.Fatalf("row %d mutated to %d", i, id)
			}
		}
	}
	<-done
	if snap.Rows() != 100 || tb.Snapshot().Rows() != 1100 {
		t.Fatalf("snapshot=%d table=%d, want 100/1100", snap.Rows(), tb.Snapshot().Rows())
	}
}

// TestStreamedScanDrainsToSnapshotView: a range filter over a scan reads
// one snapshot of the table and answers exactly its rows — while a writer
// keeps appending to the table (-race validates that nothing behind the
// snapshot's frozen length, and nothing of the live heap, is read).
func TestStreamedScanDrainsToSnapshotView(t *testing.T) {
	const rows, from = 5000, 700
	s := NewStore("db")
	tb, err := s.CreateTable("users", usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tb.Insert(int64(i), int64(20+i%50), "u", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() *cast.Batch {
		t.Helper()
		ctx := context.Background()
		in, _, err := Scan(ctx, tb, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Filter(ctx, in, Bin{Op: OpGe, L: ColRef{Name: "uid"}, R: Const{V: int64(from)}})
		if err != nil {
			t.Fatal(err)
		}
		if ids, _ := out.Ints(0); len(ids) < rows-from || ids[0] != from || ids[rows-from-1] != rows-1 {
			t.Fatalf("filtered %d rows starting at %d", len(ids), ids[0])
		}
		return out
	}
	scan()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := rows; i < rows+2000; i++ {
			if err := tb.Insert(int64(i), int64(99), "w", 2.0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		ids, _ := scan().Ints(0)
		for i, id := range ids {
			if id != int64(from+i) {
				t.Fatalf("round %d: row %d holds uid %d", round, i, id)
			}
		}
	}
	<-done
}

func TestTableInsertTypeCheck(t *testing.T) {
	s := newTestStore(t, 5)
	users, _ := s.Table("users")
	if err := users.Insert("not-an-int", int64(1), "x", 1.0); err == nil {
		t.Fatal("bad insert accepted")
	}
	if users.Snapshot().Rows() != 5 {
		t.Fatalf("rows = %d after failed insert", users.Snapshot().Rows())
	}
}

func TestIndexesMaintainedOnInsert(t *testing.T) {
	s := newTestStore(t, 10)
	users, _ := s.Table("users")
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	// Rows inserted after index creation must be indexed too.
	if err := users.Insert(int64(100), int64(30), "late", 5.0); err != nil {
		t.Fatal(err)
	}
	rows, kind, err := Scan(context.Background(), users, Bin{Op: OpEq, L: ColRef{Name: "uid"}, R: Const{V: int64(100)}})
	if err != nil || kind != "IndexScan(users.uid)" || rows.Rows() != 1 {
		t.Fatalf("btree after insert: %s found %d rows, %v", kind, rows.Rows(), err)
	}
	if !users.HasBTree("uid") || users.HasBTree("name") {
		t.Fatal("HasBTree wrong")
	}
}

func TestBTreeIndexTypeRestriction(t *testing.T) {
	s := newTestStore(t, 2)
	users, _ := s.Table("users")
	if err := users.CreateBTreeIndex("name"); !errors.Is(err, ErrIndexType) {
		t.Fatalf("btree on string: %v", err)
	}
	if err := users.CreateBTreeIndex("ghost"); !errors.Is(err, cast.ErrColumnNotFound) {
		t.Fatalf("btree on missing: %v", err)
	}
}

func TestLookupRange(t *testing.T) {
	s := newTestStore(t, 50)
	users, _ := s.Table("users")
	pred := Bin{OpAnd,
		Bin{Op: OpGe, L: ColRef{Name: "uid"}, R: Const{V: int64(10)}},
		Bin{Op: OpLe, L: ColRef{Name: "uid"}, R: Const{V: int64(19)}}}
	// Without an index, the one chunk of 50 rows is the whole heap.
	if rows, kind := users.SeekRange(pred); kind != "SeqScan(users)" || rows.Rows() != 50 {
		t.Fatalf("range without index: %s of %d rows", kind, rows.Rows())
	}
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	// The first conjunct seeks: uid 10 to 49.
	if rows, kind := users.SeekRange(pred); kind != "IndexScan(users.uid)" || rows.Rows() != 40 {
		t.Fatalf("range with index: %s of %d rows", kind, rows.Rows())
	}
}

// TestExprEval: each node evaluates to its value through a projection, and
// AND/OR leave a right side the left one decides unevaluated.
func TestExprEval(t *testing.T) {
	b := cast.NewBatch(usersSchema(), 1)
	if err := b.AppendRow(int64(7), int64(30), "bob", 62.5); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		e    Expr
		want any
	}{
		{ColRef{Name: "age"}, int64(30)},
		{ColRef{Name: "u.age"}, int64(30)}, // qualified
		{Const{V: int64(5)}, int64(5)},
		{Bin{OpAdd, ColRef{Name: "age"}, Const{V: int64(5)}}, int64(35)},
		{Bin{OpSub, ColRef{Name: "age"}, Const{V: int64(5)}}, int64(25)},
		{Bin{OpMul, Const{V: int64(4)}, Const{V: int64(3)}}, int64(12)},
		{Bin{OpDiv, Const{V: int64(9)}, Const{V: int64(2)}}, int64(4)},
		{Bin{OpEq, ColRef{Name: "name"}, Const{V: "bob"}}, true},
		{Bin{OpNe, ColRef{Name: "name"}, Const{V: "bob"}}, false},
		{Bin{OpGt, ColRef{Name: "score"}, Const{V: 60.0}}, true},
		{Bin{OpGe, ColRef{Name: "age"}, Const{V: int64(30)}}, true},
		{Bin{OpLt, ColRef{Name: "age"}, Const{V: int64(30)}}, false},
		{Bin{OpLe, ColRef{Name: "age"}, Const{V: int64(30)}}, true},
		// Mixed int/float comparison widens.
		{Bin{OpGt, ColRef{Name: "age"}, Const{V: 29.5}}, true},
		{Bin{OpAnd, Const{V: true}, Const{V: false}}, false},
		{Bin{OpOr, Const{V: false}, Const{V: true}}, true},
		{Not{Bin{OpEq, ColRef{Name: "uid"}, Const{V: int64(7)}}}, false},
		{Bin{OpAdd, Const{V: "a"}, Const{V: "b"}}, "ab"},
		// Short circuits: the missing column is never read.
		{Bin{OpAnd, Const{V: false}, ColRef{Name: "ghost"}}, false},
		{Bin{OpOr, Const{V: true}, ColRef{Name: "ghost"}}, true},
	}
	for _, tc := range tests {
		items := []ProjItem{{E: tc.e, Name: "v"}}
		schema, err := ProjectSchema(b.Schema(), items)
		if err != nil {
			t.Fatalf("%s: %v", tc.e, err)
		}
		out, err := Project(context.Background(), b, items, schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.e, err)
		}
		if got, _ := out.Value(0, 0); got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

// TestExprErrorWording pins every error text evaluation can produce as a
// literal, through Filter and Project, so the wording cannot
// drift even where the kernels and the reference drift together. Rows marked
// filterOnly are values, not predicates: only a filter rejects them.
func TestExprErrorWording(t *testing.T) {
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "i", Type: cast.Int64},
		cast.Column{Name: "ts", Type: cast.Timestamp},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "s", Type: cast.String},
		cast.Column{Name: "p", Type: cast.Bool},
	), 3)
	for r, i := range []int64{2, 0, -1} {
		if err := b.AppendRow(i, int64(r), 1.5, "a", r == 0); err != nil {
			t.Fatal(err)
		}
	}
	col := func(n string) Expr { return ColRef{Name: n} }
	n := func(v int64) Expr { return Const{V: v} }
	bin := func(op BinOp, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }
	gt0 := func(e Expr) Expr { return bin(OpGt, e, n(0)) }
	cases := []struct {
		e          Expr
		want       string
		filterOnly bool
	}{
		{gt0(col("ghost")), `cast: column not found: "ghost"`, false},
		{gt0(Param{Slot: 3, Type: cast.Int64}), "relational: unbound parameter: slot 3 (int64)", false},
		{gt0(bin(OpDiv, n(10), col("i"))), "relational: integer division by zero", false},
		{gt0(bin(OpMul, col("i"), n(math.MaxInt64))), "relational: integer overflow: 2 * 9223372036854775807", false},
		{gt0(bin(OpAdd, n(math.MaxInt64), col("i"))), "relational: integer overflow: 9223372036854775807 + 2", false},
		{gt0(bin(OpSub, n(math.MinInt64), col("i"))), "relational: integer overflow: -9223372036854775808 - 2", false},
		{gt0(bin(OpDiv, n(math.MinInt64), n(-1))), "relational: integer overflow: -9223372036854775808 / -1", false},
		{gt0(bin(OpAdd, col("i"), col("s"))), "relational: expression: + int64 vs string", false},
		{gt0(bin(OpMul, col("ts"), col("p"))), "relational: expression: * int64 vs bool", false},
		{gt0(bin(OpSub, col("f"), col("s"))), "relational: expression: - float64 vs string", false},
		{gt0(bin(OpAdd, col("s"), col("i"))), "relational: expression: + string vs int64", false},
		{gt0(bin(OpMul, col("s"), col("s"))), "relational: expression: * unsupported on string", false},
		{gt0(bin(OpAdd, col("p"), col("p"))), "relational: expression: + unsupported on bool", false},
		{gt0(bin(OpAdd, Const{V: 7}, col("i"))), "relational: expression: + unsupported on int", false},
		{gt0(bin(OpAdd, col("i"), Const{V: 7})), "relational: expression: + int64 vs int", false},
		{bin(OpEq, col("i"), col("s")), "relational: expression: cast: type mismatch: int64 vs string", false},
		{bin(OpLt, col("ts"), Const{V: "x"}), "relational: expression: cast: type mismatch: int64 vs string", false},
		{bin(OpEq, col("p"), col("f")), "relational: expression: cast: type mismatch: bool vs float64", false},
		{bin(OpEq, col("i"), Const{V: 7}), "relational: expression: cast: type mismatch: int64 vs int", false},
		{bin(OpEq, Const{V: 7}, col("i")), "relational: expression: cast: type mismatch: unsupported value type int", false},
		{bin(OpAnd, col("i"), col("p")), "relational: expression: AND wants bool lhs, got int64", false},
		{bin(OpOr, Not{E: col("p")}, col("s")), "relational: expression: OR wants bool rhs, got string", false},
		{Not{E: col("f")}, "relational: expression: NOT wants bool, got float64", false},
		{Not{E: Const{V: 7}}, "relational: expression: NOT wants bool, got int", false},
		{bin(OpAdd, col("ts"), col("i")), "relational: expression: predicate returned int64", true},
		{Const{V: 7}, "relational: expression: predicate returned int", true},
	}
	ctx := context.Background()
	placeholder := cast.MustSchema(cast.Column{Name: "x", Type: cast.Bool})
	for _, tc := range cases {
		if _, err := Filter(ctx, b, tc.e); err == nil || err.Error() != tc.want {
			t.Errorf("filter %s: %v, want %q", tc.e, err, tc.want)
		}
		if tc.filterOnly {
			continue
		}
		items := []ProjItem{{E: tc.e, Name: "x"}}
		if _, err := Project(ctx, b, items, placeholder); err == nil || err.Error() != tc.want {
			t.Errorf("project %s: %v, want %q", tc.e, err, tc.want)
		}
	}
}

func TestSeqScanAndFilter(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 2500) // three chunks: uid is clustered, age random
	users, _ := s.Table("users")
	out, kind, err := Scan(ctx, users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2500 || kind != "SeqScan(users)" {
		t.Fatalf("%s rows = %d", kind, out.Rows())
	}
	pred := Bin{OpLt, ColRef{Name: "uid"}, Const{V: int64(100)}}
	if out, err = Filter(ctx, out, pred); err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 {
		t.Fatalf("filter rows = %d", out.Rows())
	}
	older := Bin{OpGt, ColRef{Name: "age"}, Const{V: int64(60)}}
	over60, err := Filter(ctx, users.Snapshot(), older)
	if err != nil {
		t.Fatal(err)
	}
	// The same steps as statements, and what they report of them. Every
	// chunk holds an age over 60, so that predicate prunes nothing and the
	// scan reads the heap. uid is clustered: only the first chunk's zone
	// admits uid < 100, so the scan reads those 1024 rows, not 2500. A
	// join reads its build side (7500 orders) and every probe row.
	for _, tc := range []struct {
		sql  string
		want []OpStats
	}{
		{"SELECT * FROM users WHERE age > 60", []OpStats{
			{Kind: "SeqScan(users)", RowsIn: 2500, RowsOut: 2500},
			{Kind: "Filter" + older.String(), RowsIn: 2500, RowsOut: int64(over60.Rows())},
		}},
		{"SELECT * FROM users WHERE uid < 100", []OpStats{
			{Kind: "ZoneScan(users.uid)", RowsIn: ChunkRows, RowsOut: ChunkRows},
			{Kind: "Filter" + pred.String(), RowsIn: ChunkRows, RowsOut: 100},
		}},
		{"SELECT * FROM users JOIN orders ON uid = user_id WHERE uid < 100", []OpStats{
			{Kind: "SeqScan(users)", RowsIn: 2500, RowsOut: 2500},
			{Kind: "HashJoin(uid=user_id)", RowsIn: 7500 + 2500, RowsOut: 7500},
			{Kind: "Filter" + pred.String(), RowsIn: 7500, RowsOut: 300},
		}},
	} {
		_, stats, err := NewEngine(s).Query(ctx, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(stats, tc.want) {
			t.Fatalf("%s: stats = %+v, want %+v", tc.sql, stats, tc.want)
		}
	}
}

func TestIndexScanMatchesFilteredSeqScan(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 1200)
	users, _ := s.Table("users")
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	pred := Bin{OpAnd,
		Bin{OpGe, ColRef{Name: "uid"}, Const{V: int64(100)}},
		Bin{OpLe, ColRef{Name: "uid"}, Const{V: int64(299)}}}
	// The seek serves one conjunct; the filter above it applies all of pred.
	seek, kind, err := Scan(ctx, users, pred)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "IndexScan(users.uid)" || seek.Rows() != 1100 {
		t.Fatalf("%s returns %d rows, want the 1100 with uid >= 100 from the index", kind, seek.Rows())
	}
	viaIndex, err := Filter(ctx, seek, pred)
	if err != nil {
		t.Fatal(err)
	}
	viaScan, err := Filter(ctx, users.Snapshot(), pred)
	if err != nil {
		t.Fatal(err)
	}
	sortedIdx, err := viaIndex.SortBy(-1, cast.SortKey{Col: "uid"})
	if err != nil {
		t.Fatal(err)
	}
	sortedScan, err := viaScan.SortBy(-1, cast.SortKey{Col: "uid"})
	if err != nil {
		t.Fatal(err)
	}
	if viaIndex.Rows() != 200 || !sortedIdx.Equal(sortedScan) {
		t.Fatal("index scan and filtered seq scan disagree")
	}
}

func TestProject(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 10)
	users, _ := s.Table("users")
	items := []ProjItem{
		{E: ColRef{Name: "name"}, Name: "n"},
		{E: Bin{OpAdd, ColRef{Name: "age"}, Const{V: int64(1)}}, Name: "age_next"},
	}
	schema, err := ProjectSchema(users.Schema(), items)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Project(ctx, users.Snapshot(), items, schema)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Len() != 2 || !out.Schema().Has("age_next") {
		t.Fatalf("projected schema %s", out.Schema())
	}
	if out.Rows() != 10 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 300)
	users, _ := s.Table("users")
	orders, _ := s.Table("orders")

	got, err := hashJoin(ctx, orders.Snapshot(), users.Snapshot(), "user_id", "uid")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 900 { // every order matches exactly one user
		t.Fatalf("join rows = %d, want 900", got.Rows())
	}
	// Verify against a nested-loop reference on a sample.
	ob := orders.Snapshot()
	ub := users.Snapshot()
	count := 0
	for i := 0; i < ob.Rows(); i++ {
		oid, _ := ob.Value(i, 1)
		for k := 0; k < ub.Rows(); k++ {
			uid, _ := ub.Value(k, 0)
			if oid == uid {
				count++
			}
		}
	}
	if count != got.Rows() {
		t.Fatalf("nested loop count %d != hash join %d", count, got.Rows())
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 200)
	users, _ := s.Table("users")
	orders, _ := s.Table("orders")
	viaHash, err := hashJoin(ctx, orders.Snapshot(), users.Snapshot(), "user_id", "uid")
	if err != nil {
		t.Fatal(err)
	}
	// The ON columns written build side first: both joins orient them.
	viaMerge, kind, err := MergeJoin(ctx, orders.Snapshot(), users.Snapshot(), "uid", "user_id")
	if err != nil {
		t.Fatal(err)
	}
	if kind != "MergeJoin(user_id=uid)" {
		t.Fatalf("merge join reports %s", kind)
	}
	if viaHash.Rows() != viaMerge.Rows() {
		t.Fatalf("hash join %d rows, merge join %d", viaHash.Rows(), viaMerge.Rows())
	}
	hs, err := viaHash.SortBy(-1, cast.SortKey{Col: "oid"})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := viaMerge.SortBy(-1, cast.SortKey{Col: "oid"})
	if err != nil {
		t.Fatal(err)
	}
	if !hs.Equal(ms) {
		t.Fatal("join outputs differ")
	}
}

func TestSortAndLimit(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 500)
	users, _ := s.Table("users")
	sorted, err := Sort(ctx, users.Snapshot(), []OrderItem{{Col: "users.age", Desc: true}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Limit(ctx, sorted, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 10 {
		t.Fatalf("limit rows = %d", out.Rows())
	}
	ages, _ := out.Ints(1)
	for i := 1; i < len(ages); i++ {
		if ages[i-1] < ages[i] {
			t.Fatalf("not descending: %v", ages)
		}
	}
	if all, err := Limit(ctx, sorted, 501); err != nil || all.Rows() != 500 {
		t.Fatalf("limit beyond the input: %d rows, %v", all.Rows(), err)
	}
}

func TestGroupBy(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, 260) // 10 users per name letter
	users, _ := s.Table("users")
	out, err := groupBy(ctx, users.Snapshot(), []string{"name"}, []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "age", As: "sum_age"},
		{Fn: AggAvg, Col: "age", As: "avg_age"},
		{Fn: AggMin, Col: "age", As: "min_age"},
		{Fn: AggMax, Col: "age", As: "max_age"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 26 {
		t.Fatalf("groups = %d, want 26", out.Rows())
	}
	ns, _ := out.Ints(1)
	var total int64
	for _, n := range ns {
		total += n
	}
	if total != 260 {
		t.Fatalf("count sum = %d", total)
	}
	// avg between min and max for each group.
	mins, _ := out.Ints(4)
	maxs, _ := out.Ints(5)
	avgs, _ := out.Floats(3)
	for i := range avgs {
		if avgs[i] < float64(mins[i]) || avgs[i] > float64(maxs[i]) {
			t.Fatalf("group %d: avg %v outside [%d,%d]", i, avgs[i], mins[i], maxs[i])
		}
	}
}

func TestGroupByGlobalEmptyInput(t *testing.T) {
	ctx := context.Background()
	s := NewStore("empty")
	tb, _ := s.CreateTable("t", usersSchema())
	out, err := groupBy(ctx, tb.Snapshot(), nil, []AggSpec{{Fn: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 {
		t.Fatalf("global agg rows = %d", out.Rows())
	}
	n, _ := out.Ints(0)
	if n[0] != 0 {
		t.Fatalf("count = %d", n[0])
	}
}

// TestRunHonorsContext: a statement run under a cancelled context reads
// nothing and answers context.Canceled.
func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := NewEngine(newTestStore(t, 100)).Query(ctx, "SELECT uid FROM users WHERE age > 30 ORDER BY uid")
	if !errors.Is(err, context.Canceled) || out != nil || stats != nil {
		t.Fatalf("want context.Canceled and no output, got %v, %v, %v", out, stats, err)
	}
}

// Property: hash join row count equals sum over keys of |L_k| x |R_k|.
func TestPropertyHashJoinCardinality(t *testing.T) {
	f := func(seed int64, nL, nR uint8) bool {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		s := NewStore("p")
		ls := cast.MustSchema(cast.Column{Name: "k", Type: cast.Int64}, cast.Column{Name: "lv", Type: cast.Int64})
		rs := cast.MustSchema(cast.Column{Name: "rk", Type: cast.Int64}, cast.Column{Name: "rv", Type: cast.Int64})
		lt, _ := s.CreateTable("l", ls)
		rt, _ := s.CreateTable("r", rs)
		lCount := make(map[int64]int64)
		rCount := make(map[int64]int64)
		for i := 0; i < int(nL)%60+1; i++ {
			k := int64(rng.Intn(10))
			if err := lt.Insert(k, int64(i)); err != nil {
				return false
			}
			lCount[k]++
		}
		for i := 0; i < int(nR)%60+1; i++ {
			k := int64(rng.Intn(10))
			if err := rt.Insert(k, int64(i)); err != nil {
				return false
			}
			rCount[k]++
		}
		out, err := hashJoin(ctx, lt.Snapshot(), rt.Snapshot(), "k", "rk")
		if err != nil {
			return false
		}
		var want int64
		for k, lc := range lCount {
			want += lc * rCount[k]
		}
		return int64(out.Rows()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
