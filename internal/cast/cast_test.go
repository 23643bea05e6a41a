package cast

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "score", Type: Float64},
		Column{Name: "name", Type: String},
		Column{Name: "active", Type: Bool},
		Column{Name: "ts", Type: Timestamp},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func testBatch(t *testing.T, n int) *Batch {
	t.Helper()
	b := NewBatch(testSchema(t), n)
	for i := 0; i < n; i++ {
		err := b.AppendRow(int64(i), float64(i)*0.5, "name-"+string(rune('a'+i%26)), i%2 == 0, int64(1000+i))
		if err != nil {
			t.Fatalf("AppendRow(%d): %v", i, err)
		}
	}
	return b
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "a", Type: String})
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("want ErrDuplicateName, got %v", err)
	}
}

func TestNewSchemaRejectsInvalidType(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Type: Type(0)}); err == nil {
		t.Fatal("want error for zero type")
	}
	if _, err := NewSchema(Column{Name: "a", Type: Type(99)}); err == nil {
		t.Fatal("want error for out-of-range type")
	}
}

func TestSchemaIndexAndHas(t *testing.T) {
	s := testSchema(t)
	i, err := s.Index("name")
	if err != nil || i != 2 {
		t.Fatalf("Index(name) = %d, %v; want 2, nil", i, err)
	}
	if _, err := s.Index("missing"); !errors.Is(err, ErrColumnNotFound) {
		t.Fatalf("want ErrColumnNotFound, got %v", err)
	}
	if !s.Has("id") || s.Has("nope") {
		t.Fatal("Has misbehaves")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project("name", "id")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 2 || p.Col(0).Name != "name" || p.Col(1).Name != "id" {
		t.Fatalf("bad projection: %s", p)
	}
	if _, err := s.Project("ghost"); !errors.Is(err, ErrColumnNotFound) {
		t.Fatalf("want ErrColumnNotFound, got %v", err)
	}
}

func TestSchemaConcat(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Concat(s); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("self-concat should fail with ErrDuplicateName, got %v", err)
	}
	other := MustSchema(Column{Name: "x", Type: Int64})
	c, err := s.Concat(other)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if c.Len() != s.Len()+1 {
		t.Fatalf("Concat len = %d", c.Len())
	}
}

func TestAppendRowTypeChecks(t *testing.T) {
	b := NewBatch(testSchema(t), 0)
	tests := []struct {
		name string
		vals []any
	}{
		{"wrong arity", []any{int64(1)}},
		{"string for int", []any{"x", 0.5, "n", true, int64(1)}},
		{"int for string", []any{int64(1), 0.5, int64(9), true, int64(1)}},
		{"int for bool", []any{int64(1), 0.5, "n", int64(1), int64(1)}},
		{"bool for float", []any{int64(1), true, "n", true, int64(1)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := b.AppendRow(tc.vals...); err == nil {
				t.Fatalf("AppendRow(%v) should fail", tc.vals)
			}
			if b.Rows() != 0 {
				t.Fatalf("failed append mutated batch: rows=%d", b.Rows())
			}
		})
	}
	// The failed appends above must not leave partial column data behind.
	if err := b.AppendRow(int64(1), 0.5, "n", true, int64(1)); err != nil {
		t.Fatalf("valid AppendRow after failures: %v", err)
	}
	for c := 0; c < b.Schema().Len(); c++ {
		if _, err := b.Value(0, c); err != nil {
			t.Fatalf("column %d corrupt after rollback: %v", c, err)
		}
	}
}

func TestAppendRowAcceptsGoInts(t *testing.T) {
	b := NewBatch(testSchema(t), 0)
	if err := b.AppendRow(7, 3, "n", false, 12); err != nil {
		t.Fatalf("AppendRow with plain ints: %v", err)
	}
	v, err := b.Value(0, 0)
	if err != nil || v.(int64) != 7 {
		t.Fatalf("Value = %v, %v", v, err)
	}
	f, err := b.Value(0, 1)
	if err != nil || f.(float64) != 3 {
		t.Fatalf("float Value = %v, %v", f, err)
	}
}

func TestValueAndRow(t *testing.T) {
	b := testBatch(t, 10)
	row, err := b.Row(3)
	if err != nil {
		t.Fatalf("Row: %v", err)
	}
	if row[0].(int64) != 3 || row[1].(float64) != 1.5 {
		t.Fatalf("bad row: %v", row)
	}
	if _, err := b.Row(10); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("want ErrRowOutOfRange, got %v", err)
	}
	if _, err := b.Value(-1, 0); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("want ErrRowOutOfRange, got %v", err)
	}
}

func TestTypedAccessors(t *testing.T) {
	b := testBatch(t, 4)
	ints, err := b.Ints(0)
	if err != nil || len(ints) != 4 {
		t.Fatalf("Ints: %v %v", ints, err)
	}
	if _, err := b.Ints(1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Ints on float col: %v", err)
	}
	if _, err := b.Floats(0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Floats on int col: %v", err)
	}
	if _, err := b.Strings(0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Strings on int col: %v", err)
	}
	if _, err := b.Bools(0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Bools on int col: %v", err)
	}
	ts, err := b.Ints(4) // Timestamp column readable via Ints
	if err != nil || ts[0] != 1000 {
		t.Fatalf("timestamp Ints: %v %v", ts, err)
	}
}

func TestAppendBatchAndSlice(t *testing.T) {
	a := testBatch(t, 5)
	b := testBatch(t, 3)
	if err := a.AppendBatch(b); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if a.Rows() != 8 {
		t.Fatalf("rows = %d, want 8", a.Rows())
	}
	sl, err := a.Slice(5, 8)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if !sl.Equal(testBatch(t, 3)) {
		t.Fatal("slice of appended region differs from source")
	}
	if _, err := a.Slice(3, 2); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("bad slice bounds: %v", err)
	}
	mismatch := NewBatch(MustSchema(Column{Name: "z", Type: Int64}), 0)
	if err := a.AppendBatch(mismatch); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("schema mismatch append: %v", err)
	}
}

func TestGather(t *testing.T) {
	b := testBatch(t, 6)
	g := b.Take([]int32{5, 0, 3, 3})
	ids, _ := g.Ints(0)
	if g.Rows() != 4 || ids[0] != 5 || ids[1] != 0 || ids[2] != 3 || ids[3] != 3 {
		t.Fatalf("gather order wrong: %v", ids)
	}
	if !g.Schema().Equal(b.Schema()) {
		t.Fatalf("gathered schema %s, want %s", g.Schema(), b.Schema())
	}
}

func TestProjectBatch(t *testing.T) {
	b := testBatch(t, 4)
	p, err := b.Project("name", "id")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Rows() != 4 || p.Schema().Len() != 2 {
		t.Fatalf("projection shape wrong: %d rows, %d cols", p.Rows(), p.Schema().Len())
	}
	ids, err := p.Ints(1)
	if err != nil || ids[2] != 2 {
		t.Fatalf("projected ids: %v %v", ids, err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := testBatch(t, 3)
	c := b.Clone()
	ints, _ := b.Ints(0)
	ints[0] = 999
	cInts, _ := c.Ints(0)
	if cInts[0] == 999 {
		t.Fatal("Clone shares storage with source")
	}
}

func TestByteSize(t *testing.T) {
	b := testBatch(t, 10)
	// 3 fixed 8-byte cols + bool col (1B) + strings ("name-X" = 6B + 8B overhead).
	want := int64(10*8*3 + 10*1 + 10*(6+8))
	if got := b.ByteSize(); got != want {
		t.Fatalf("ByteSize = %d, want %d", got, want)
	}
}

func TestSortBy(t *testing.T) {
	b := NewBatch(MustSchema(Column{Name: "k", Type: Int64}, Column{Name: "v", Type: String}), 0)
	for _, kv := range []struct {
		k int64
		v string
	}{{3, "c"}, {1, "a"}, {2, "b"}, {1, "a2"}} {
		if err := b.AppendRow(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	sorted, err := b.SortBy(-1, SortKey{Col: "k"})
	if err != nil {
		t.Fatalf("SortBy: %v", err)
	}
	ks, _ := sorted.Ints(0)
	vs, _ := sorted.Strings(1)
	if ks[0] != 1 || ks[1] != 1 || ks[2] != 2 || ks[3] != 3 {
		t.Fatalf("not sorted: %v", ks)
	}
	if vs[0] != "a" || vs[1] != "a2" {
		t.Fatalf("sort not stable: %v", vs)
	}
	desc, err := b.SortBy(-1, SortKey{Col: "k", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	dks, _ := desc.Ints(0)
	if dks[0] != 3 || dks[3] != 1 {
		t.Fatalf("desc sort wrong: %v", dks)
	}
	if _, err := b.SortBy(-1, SortKey{Col: "missing"}); !errors.Is(err, ErrColumnNotFound) {
		t.Fatalf("sort by missing column: %v", err)
	}
}

func TestTakeSelection(t *testing.T) {
	b := testBatch(t, 10)
	ids, _ := b.Ints(0)
	var sel []int32
	for r, id := range ids {
		if id%2 == 0 {
			sel = append(sel, int32(r))
		}
	}
	f := b.Take(sel)
	if f.Rows() != 5 {
		t.Fatalf("taken rows = %d, want 5", f.Rows())
	}
	if got, _ := f.Ints(0); !slices.Equal(got, []int64{ids[0], ids[2], ids[4], ids[6], ids[8]}) {
		t.Fatalf("Take kept ids %v", got)
	}
	if e := b.Take(nil); e.Rows() != 0 || !e.Schema().Equal(b.Schema()) {
		t.Fatalf("empty selection: %d rows", e.Rows())
	}
}

// compareValues orders two boxed values of the same dynamic type: -1, 0 or
// +1, in Comparator's order. Values of two types, or of a type no column
// has, are ErrTypeMismatch. The sort and selection tests check the typed
// kernels against it.
func compareValues(a, b any) (int, error) {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		if !ok {
			return 0, fmt.Errorf("%w: int64 vs %T", ErrTypeMismatch, b)
		}
		return cmpOrdered(x, y), nil
	case float64:
		y, ok := b.(float64)
		if !ok {
			return 0, fmt.Errorf("%w: float64 vs %T", ErrTypeMismatch, b)
		}
		return cmpOrdered(x, y), nil
	case string:
		y, ok := b.(string)
		if !ok {
			return 0, fmt.Errorf("%w: string vs %T", ErrTypeMismatch, b)
		}
		return cmpOrdered(x, y), nil
	case bool:
		y, ok := b.(bool)
		if !ok {
			return 0, fmt.Errorf("%w: bool vs %T", ErrTypeMismatch, b)
		}
		return cmpBool(x, y), nil
	}
	return 0, fmt.Errorf("%w: unsupported value type %T", ErrTypeMismatch, a)
}

func TestCompareValues(t *testing.T) {
	tests := []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{1.5, 2.5, -1},
		{"a", "b", -1},
		{"b", "b", 0},
		{false, true, -1},
		{true, true, 0},
		{true, false, 1},
	}
	for _, tc := range tests {
		got, err := compareValues(tc.a, tc.b)
		if err != nil {
			t.Fatalf("compareValues(%v,%v): %v", tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Fatalf("compareValues(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if _, err := compareValues(int64(1), "x"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("mixed compare: %v", err)
	}
	if _, err := compareValues(struct{}{}, struct{}{}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("unsupported compare: %v", err)
	}
}

func TestKeyStringDistinguishesAdjacentValues(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: String}, Column{Name: "b", Type: String})
	b := NewBatch(s, 0)
	if err := b.AppendRow("x|", "y"); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow("x", "|y"); err != nil {
		t.Fatal(err)
	}
	k0 := string(b.AppendKey(nil, 0, []int{0, 1}))
	k1 := string(b.AppendKey(nil, 1, []int{0, 1}))
	if k0 == k1 {
		t.Fatalf("keys alias: %q", k0)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	tests := []struct {
		t Type
		v any
	}{
		{Int64, int64(-42)},
		{Float64, 3.25},
		{String, "hello, world"},
		{Bool, true},
		{Timestamp, int64(1234567890)},
	}
	for _, tc := range tests {
		s := FormatValue(tc.v)
		got, err := ParseValue(tc.t, s)
		if err != nil {
			t.Fatalf("ParseValue(%s, %q): %v", tc.t, s, err)
		}
		if got != tc.v {
			t.Fatalf("round trip %v -> %q -> %v", tc.v, s, got)
		}
	}
	if _, err := ParseValue(Int64, "zzz"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad int parse: %v", err)
	}
	if _, err := ParseValue(Float64, "zzz"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad float parse: %v", err)
	}
	if _, err := ParseValue(Bool, "zzz"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad bool parse: %v", err)
	}
}

func TestTypeStringAndWidth(t *testing.T) {
	if Int64.String() != "int64" || Timestamp.String() != "timestamp" {
		t.Fatal("Type.String broken")
	}
}

func TestHConcat(t *testing.T) {
	ls := MustSchema(Column{Name: "id", Type: Int64}, Column{Name: "val", Type: Float64})
	rs := MustSchema(Column{Name: "tag", Type: String}, Column{Name: "ok", Type: Bool})
	l := NewBatch(ls, 3)
	r := NewBatch(rs, 3)
	for i := 0; i < 3; i++ {
		if err := l.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
		if err := r.AppendRow(fmt.Sprintf("t%d", i), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := ls.Concat(rs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := HConcat(s, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 || out.Schema().Len() != 4 {
		t.Fatalf("out = %d rows x %d cols, want 3x4", out.Rows(), out.Schema().Len())
	}
	row, err := out.Row(1)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != int64(1) || row[1] != 0.5 || row[2] != "t1" || row[3] != false {
		t.Fatalf("row 1 = %v", row)
	}
	// A view input must zip without touching the parent's storage.
	lv, err := l.ViewRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := r.ViewRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	vo, err := HConcat(s, lv, rv)
	if err != nil {
		t.Fatal(err)
	}
	if vo.Rows() != 2 {
		t.Fatalf("view zip rows = %d, want 2", vo.Rows())
	}
	// Mismatched row counts are rejected.
	short := NewBatch(rs, 1)
	if err := short.AppendRow("x", true); err != nil {
		t.Fatal(err)
	}
	if _, err := HConcat(s, l, short); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("row mismatch: %v", err)
	}
	// A schema not matching l++r is rejected.
	if _, err := HConcat(ls, l, r); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("schema arity mismatch: %v", err)
	}
}

func TestForEachChunk(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: Int64}, Column{Name: "b", Type: String})
	b := NewBatch(s, 10)
	for i := 0; i < 10; i++ {
		if err := b.AppendRow(int64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Chunks of 3 over 10 rows: 3+3+3+1, concatenating back to the batch.
	var sizes []int
	concat := NewBatch(s, 10)
	if err := b.ForEachChunk(3, func(chunk *Batch) error {
		sizes = append(sizes, chunk.Rows())
		return concat.AppendBatch(chunk)
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 4 || sizes[0] != 3 || sizes[3] != 1 {
		t.Fatalf("chunk sizes = %v", sizes)
	}
	if !concat.Equal(b) {
		t.Fatal("chunk concatenation differs from source batch")
	}
	// size < 1 yields one whole-batch view; empty batches yield no calls.
	calls := 0
	if err := b.ForEachChunk(0, func(chunk *Batch) error {
		calls++
		if chunk.Rows() != 10 {
			t.Fatalf("whole-batch view rows = %d", chunk.Rows())
		}
		return nil
	}); err != nil || calls != 1 {
		t.Fatalf("size<1: calls=%d err=%v", calls, err)
	}
	if err := NewBatch(s, 0).ForEachChunk(4, func(*Batch) error {
		t.Fatal("empty batch produced a chunk")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Errors stop the iteration and propagate.
	boom := errors.New("stop")
	calls = 0
	if err := b.ForEachChunk(4, func(*Batch) error {
		calls++
		return boom
	}); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("error propagation: calls=%d err=%v", calls, err)
	}
}

// TestAppendJSONRowsBounds: the range is checked like every other row range
// and a refused one leaves dst alone; no rows are the empty array.
func TestAppendJSONRowsBounds(t *testing.T) {
	b := testBatch(t, 3)
	for _, r := range [][2]int{{-1, 2}, {2, 1}, {0, 4}} {
		if got, err := b.AppendJSONRows([]byte("x"), r[0], r[1]); !errors.Is(err, ErrRowOutOfRange) || string(got) != "x" {
			t.Fatalf("rows [%d,%d): %q, %v", r[0], r[1], got, err)
		}
	}
	empty, err := BatchOf(MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.AppendJSONRows(nil, 0, 0); err != nil || string(got) != "[]" {
		t.Fatalf("no columns, no rows: %q, %v", got, err)
	}
}
