package relational

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"polystorepp/internal/cast"
)

// vecSchema has every column type, two of each kind the kernels pair up.
func vecSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "i", Type: cast.Int64},
		cast.Column{Name: "j", Type: cast.Int64},
		cast.Column{Name: "ts", Type: cast.Timestamp},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "g", Type: cast.Float64},
		cast.Column{Name: "s", Type: cast.String},
		cast.Column{Name: "u", Type: cast.String},
		cast.Column{Name: "p", Type: cast.Bool},
		cast.Column{Name: "q", Type: cast.Bool},
	)
}

// vecBatch draws n rows from small domains, so equal values, zero divisors
// and NaNs all occur.
func vecBatch(t testing.TB, rng *rand.Rand, n int) *cast.Batch {
	t.Helper()
	flt := func() float64 {
		if rng.Intn(8) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(7)-3) * 0.5
	}
	b := cast.NewBatch(vecSchema(), n)
	for r := 0; r < n; r++ {
		if err := b.AppendRow(int64(rng.Intn(7)-3), int64(rng.Intn(4)), int64(rng.Intn(5)),
			flt(), flt(), fmt.Sprint("s", rng.Intn(3)), fmt.Sprint("s", rng.Intn(3)),
			rng.Intn(2) == 0, rng.Intn(3) == 0); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// genExpr builds a random tree meant to have kind k ('n' numeric, 's'
// string, 'b' bool) but, one time in ten, plants a subtree of another kind
// or an outright defect — a missing column, a literal of a Go type no column
// has — so every error class is reached at every depth.
func genExpr(rng *rand.Rand, depth int, k byte) Expr {
	if rng.Intn(10) == 0 {
		switch rng.Intn(4) {
		case 0:
			return ColRef{Name: "missing"}
		case 1:
			return Const{V: 7} // int, not int64
		default:
			k = "nsb"[rng.Intn(3)]
		}
	}
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return genConst(rng, k)
		}
		return genCol(rng, k)
	}
	switch k {
	case 'n':
		return Bin{Op: OpAdd + BinOp(rng.Intn(4)), L: genExpr(rng, depth-1, 'n'), R: genExpr(rng, depth-1, 'n')}
	case 's':
		return Bin{Op: OpAdd, L: genExpr(rng, depth-1, 's'), R: genExpr(rng, depth-1, 's')}
	}
	switch rng.Intn(4) {
	case 0:
		return Not{E: genExpr(rng, depth-1, 'b')}
	case 1:
		return Bin{Op: OpAnd + BinOp(rng.Intn(2)), L: genExpr(rng, depth-1, 'b'), R: genExpr(rng, depth-1, 'b')}
	}
	sub, op := "nsb"[rng.Intn(3)], OpEq+BinOp(rng.Intn(6))
	if rng.Intn(3) == 0 { // a column against a constant, on either side
		l, r := genCol(rng, sub), genConst(rng, sub)
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		return Bin{Op: op, L: l, R: r}
	}
	return Bin{Op: op, L: genExpr(rng, depth-1, sub), R: genExpr(rng, depth-1, sub)}
}

// genCol picks a column of kind k.
func genCol(rng *rand.Rand, k byte) Expr {
	names := map[byte][]string{'n': {"i", "j", "ts", "f", "g", "t.i"}, 's': {"s", "u"}, 'b': {"p", "q"}}[k]
	return ColRef{Name: names[rng.Intn(len(names))]}
}

// genConst draws a constant of kind k: numbers include NaN and -0.
func genConst(rng *rand.Rand, k byte) Expr {
	switch k {
	case 'n':
		if rng.Intn(2) == 0 {
			return Const{V: int64(rng.Intn(5) - 2)}
		}
		return Const{V: [...]float64{-1, 0, math.Copysign(0, -1), 0.5, math.NaN()}[rng.Intn(5)]}
	case 's':
		return Const{V: fmt.Sprint("s", rng.Intn(3))}
	}
	return Const{V: rng.Intn(2) == 0}
}

// sameBatch is Batch.Equal with floats compared by bit pattern: NaN results
// must match too.
func sameBatch(a, b *cast.Batch) bool {
	if a.Rows() != b.Rows() || !a.Schema().Equal(b.Schema()) {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ra, _ := a.Row(r)
		rb, _ := b.Row(r)
		for c := range ra {
			fa, isF := ra[c].(float64)
			if isF {
				if math.Float64bits(fa) != math.Float64bits(rb[c].(float64)) {
					return false
				}
			} else if ra[c] != rb[c] {
				return false
			}
		}
	}
	return true
}

func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() && errors.Is(got, ErrExpr) == errors.Is(want, ErrExpr)
}

// TestVectorEqualsRowFilter: the filter keeps exactly the rows a row-order
// refBool loop keeps, or fails with that loop's first error.
func TestVectorEqualsRowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 1500; trial++ {
		b := vecBatch(t, rng, []int{0, 1, 2, rng.Intn(300)}[rng.Intn(4)])
		pred := genExpr(rng, 1+rng.Intn(4), 'b')
		var kept []int32
		var wantErr error
		for r := 0; r < b.Rows() && wantErr == nil; r++ {
			ok, err := refBool(pred, b, r)
			if wantErr = err; ok {
				kept = append(kept, int32(r))
			}
		}
		got, err := Filter(context.Background(), b, pred)
		if !sameError(err, wantErr) {
			t.Fatalf("trial %d: %s\nerror %v, row loop says %v", trial, pred, err, wantErr)
		}
		if err == nil && !sameBatch(got, b.Take(kept)) {
			t.Fatalf("trial %d: %s\nkept %d rows, row loop keeps %d", trial, pred, got.Rows(), len(kept))
		}
	}
}

// TestVectorEqualsRowProject: a projection yields the values of a row-major
// refEval loop, or that loop's first error (lowest row, then leftmost item).
func TestVectorEqualsRowProject(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 1500; trial++ {
		b := vecBatch(t, rng, []int{0, 1, 2, rng.Intn(300)}[rng.Intn(4)])
		items := make([]ProjItem, 1+rng.Intn(3))
		for i := range items {
			items[i] = ProjItem{E: genExpr(rng, rng.Intn(4), "nsb"[rng.Intn(3)]), Name: fmt.Sprint("c", i)}
		}
		schema, err := ProjectSchema(b.Schema(), items)
		if err != nil {
			continue // an item with no result type: rejected before any row
		}
		want := cast.NewBatch(schema, b.Rows())
		var wantErr error
		for r := 0; r < b.Rows() && wantErr == nil; r++ {
			vals := make([]any, len(items))
			for i, it := range items {
				if vals[i], wantErr = refEval(it.E, b, r); wantErr != nil {
					break
				}
			}
			if wantErr == nil {
				wantErr = want.AppendRow(vals...)
			}
		}
		got, err := Project(context.Background(), b, items, schema)
		if !sameError(err, wantErr) {
			t.Fatalf("trial %d: %v\nerror %v, row loop says %v", trial, items, err, wantErr)
		}
		if err == nil && !sameBatch(got, want) {
			t.Fatalf("trial %d: %v\nvalues differ from the row loop's", trial, items)
		}
	}
}

// TestVectorPinnedSemantics names the cases the random trees reach only by
// luck: NaN compares equal to everything (refCompare's ordering, kept as
// is), timestamps meet int64s, ints widen to floats, and a guard on the left
// of AND/OR keeps a zero divisor on the right from ever being evaluated.
func TestVectorPinnedSemantics(t *testing.T) {
	b := cast.NewBatch(vecSchema(), 4)
	for r, f := range []float64{math.NaN(), 1, 2, math.NaN()} {
		if err := b.AppendRow(int64(r), int64(r%2), int64(r), f, 1.0, "a", "b", true, false); err != nil {
			t.Fatal(err)
		}
	}
	col := func(n string) Expr { return ColRef{Name: n} }
	cases := []struct {
		pred Expr
		want []int32
	}{
		{Bin{Op: OpEq, L: col("f"), R: Const{V: 1.0}}, []int32{0, 1, 3}},
		{Bin{Op: OpNe, L: col("f"), R: col("g")}, []int32{2}},
		{Bin{Op: OpLe, L: col("f"), R: Const{V: 0.0}}, []int32{0, 3}},
		{Bin{Op: OpEq, L: col("ts"), R: col("i")}, []int32{0, 1, 2, 3}},
		{Bin{Op: OpGt, L: col("i"), R: Const{V: 1.5}}, []int32{2, 3}},
		{Bin{Op: OpAnd, L: Bin{Op: OpNe, L: col("j"), R: Const{V: int64(0)}},
			R: Bin{Op: OpGe, L: Bin{Op: OpDiv, L: col("i"), R: col("j")}, R: Const{V: int64(3)}}}, []int32{3}},
		{Bin{Op: OpOr, L: Bin{Op: OpEq, L: col("j"), R: Const{V: int64(0)}},
			R: Bin{Op: OpLt, L: Bin{Op: OpDiv, L: col("i"), R: col("j")}, R: Const{V: int64(3)}}}, []int32{0, 1, 2}},
		{Bin{Op: OpLt, L: col("q"), R: col("p")}, []int32{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		got, err := Filter(context.Background(), b, tc.pred)
		if err != nil || !sameBatch(got, b.Take(tc.want)) {
			ids, _ := got.Ints(0)
			t.Errorf("%s keeps rows %v, want %v", tc.pred, ids, tc.want)
		}
	}
	// The same division, unguarded, fails on the first zero divisor.
	_, err := Filter(context.Background(), b,
		Bin{Op: OpGe, L: Bin{Op: OpDiv, L: col("i"), R: col("j")}, R: Const{V: int64(0)}})
	if _, want := refBool(Bin{Op: OpDiv, L: col("i"), R: col("j")}, b, 0); !sameError(err, want) {
		t.Errorf("unguarded division: %v, want %v", err, want)
	}
}

// TestIntArithExact: int64 + - * / over the values at and next to the
// edges of the int64 range, from columns and from constants, answer the exact
// result or fail as the reference does — ErrDivideByZero, or ErrOverflow where
// the exact result is no int64.
func TestIntArithExact(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -3037000500, -2, -1, 0, 1, 2, 3037000500, math.MaxInt64 - 1, math.MaxInt64}
	schema := cast.MustSchema(cast.Column{Name: "a", Type: cast.Int64}, cast.Column{Name: "b", Type: cast.Int64})
	out := cast.MustSchema(cast.Column{Name: "x", Type: cast.Int64})
	overflows := 0
	for _, a := range edges {
		for _, c := range edges {
			b := cast.NewBatch(schema, 1)
			if err := b.AppendRow(a, c); err != nil {
				t.Fatal(err)
			}
			for op := OpAdd; op <= OpDiv; op++ {
				for _, e := range []Expr{
					Bin{Op: op, L: ColRef{Name: "a"}, R: ColRef{Name: "b"}},
					Bin{Op: op, L: Const{V: a}, R: ColRef{Name: "b"}},
					Bin{Op: op, L: ColRef{Name: "a"}, R: Const{V: c}},
				} {
					want, wantErr := refEval(e, b, 0)
					got, err := Project(context.Background(), b, []ProjItem{{E: e, Name: "x"}}, out)
					if !sameError(err, wantErr) || errors.Is(err, ErrOverflow) != errors.Is(wantErr, ErrOverflow) {
						t.Fatalf("%s over (%d, %d): error %v, reference says %v", e, a, c, err, wantErr)
					}
					if errors.Is(err, ErrOverflow) {
						overflows++
					}
					if err != nil {
						continue
					}
					if v, _ := got.Value(0, 0); v != want {
						t.Fatalf("%s over (%d, %d) = %v, want %v", e, a, c, v, want)
					}
				}
			}
		}
	}
	if overflows == 0 {
		t.Fatal("no pair overflowed: the edges no longer reach the checks")
	}
}

// counted counts how often its expression's vector is evaluated.
type counted struct {
	Expr
	calls *int
}

func (c counted) evalVec(b *cast.Batch, in selection) (vec, int, error) {
	*c.calls++
	return c.Expr.evalVec(b, in)
}

// TestFilterStopsAtFirstError: a predicate whose comparison mismatches types
// fails on row 0. The filter must return that row's error, worded by the
// kernel, after one vector pass over the operand, not evaluate the other
// 49 999 rows and throw the work away.
func TestFilterStopsAtFirstError(t *testing.T) {
	const n = 50_000
	b := cast.NewBatch(cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64}), n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	pred := Bin{Op: OpEq, L: counted{ColRef{Name: "id"}, &calls}, R: Const{V: "zero"}}
	_, want := refBool(Bin{Op: OpEq, L: ColRef{Name: "id"}, R: Const{V: "zero"}}, b, 0)
	_, err := Filter(context.Background(), b, pred)
	if err == nil || !sameError(err, want) || !errors.Is(err, ErrExpr) {
		t.Fatalf("error %v, want row 0's %v", err, want)
	}
	if calls > 1 {
		t.Fatalf("operand evaluated %d times for a predicate that fails on row 0", calls)
	}
}

// TestIndexScanReadsItsOpenSnapshot: the row ids an index scan resolved index
// the snapshot taken with them, and no row is gathered before it is read — so
// rows inserted between the scan and its first reader neither appear nor shift
// anything.
func TestIndexScanReadsItsOpenSnapshot(t *testing.T) {
	ctx := context.Background()
	users, _ := newTestStore(t, 3000).Table("users")
	if err := users.CreateBTreeIndex("uid"); err != nil {
		t.Fatal(err)
	}
	all := Bin{Op: OpGe, L: ColRef{Name: "uid"}, R: Const{V: int64(0)}}
	first, _, err := Scan(ctx, users, all)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Clone() // every row, read before any insert
	got, kind, err := Scan(ctx, users, all)
	if err != nil || kind != "IndexScan(users.uid)" {
		t.Fatalf("%s: %v", kind, err)
	}
	for i := 0; i < 5; i++ {
		row, _ := want.Row(0)
		if err := users.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("scan saw %d rows, want the %d present when it ran", got.Rows(), want.Rows())
	}
	if again, _, _ := Scan(ctx, users, all); again.Rows() != want.Rows()+5 {
		t.Fatalf("a scan after the inserts sees %d rows, want %d", again.Rows(), want.Rows()+5)
	}
}

// shapeBatch is 210 clustered rows — 7 blocks of 30 — with the columns the
// shape predicates below pick survivors by.
func shapeBatch(t testing.TB) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "alt", Type: cast.Int64},
		cast.Column{Name: "s", Type: cast.String},
		cast.Column{Name: "flag", Type: cast.Bool},
	), 210)
	for i := 0; i < 210; i++ {
		if err := b.AppendRow(int64(i), int64(i%2), fmt.Sprint("s", i%3), i%5 < 2); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// shapeLeaves are predicates whose survivors take each shape the selection
// kernels special-case — none, all, one run, a run at either end, one run
// per block, alternating rows, a bool column — and three that
// fail: on row 2, on row 150, and (a type mismatch) on whichever row is
// evaluated first.
func shapeLeaves() []Expr {
	id, n := ColRef{Name: "id"}, func(v int64) Expr { return Const{V: v} }
	cmp := func(op BinOp, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }
	and := func(l, r Expr) Expr { return Bin{Op: OpAnd, L: l, R: r} }
	in30 := Bin{Op: OpSub, L: id, R: Bin{Op: OpMul, L: Bin{Op: OpDiv, L: id, R: n(30)}, R: n(30)}} // id % 30
	return []Expr{
		cmp(OpLt, id, n(0)), // none
		cmp(OpGe, id, n(0)), // all
		and(cmp(OpGe, id, n(50)), cmp(OpLt, id, n(120))),                               // one run
		cmp(OpLt, id, n(45)),                                                           // a run at the start
		cmp(OpGe, id, n(171)),                                                          // a run at the end
		and(cmp(OpGe, in30, n(10)), cmp(OpLt, in30, n(20))),                            // one run per block
		cmp(OpEq, ColRef{Name: "alt"}, n(1)),                                           // alternating rows
		ColRef{Name: "flag"},                                                           // a bool column
		cmp(OpEq, ColRef{Name: "s"}, Const{V: "s1"}),                                   // every third row
		cmp(OpGt, Bin{Op: OpDiv, L: n(10), R: Bin{Op: OpSub, L: id, R: n(2)}}, n(1)),   // fails on row 2
		cmp(OpGt, Bin{Op: OpDiv, L: n(10), R: Bin{Op: OpSub, L: id, R: n(150)}}, n(1)), // fails on row 150
		cmp(OpEq, ColRef{Name: "s"}, n(1)),                                             // fails wherever it is first evaluated
	}
}

// rowLoop is the reference: refBool over rows, in order, to the first error.
// It returns the rows kept and how many were evaluated before the error.
func rowLoop(pred Expr, b *cast.Batch, rows []int32) (kept []int32, evaluated int, err error) {
	for i, r := range rows {
		ok, rerr := refBool(pred, b, int(r))
		if rerr != nil {
			return kept, i, rerr
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, len(rows), nil
}

// TestSelectionKernelShapes: every survivor shape the kernels special-case,
// nested three deep under AND, OR and NOT, keeps the rows of a row-order
// refBool loop, or fails with that loop's first error — the lowest failing
// row's, and there the leftmost item's — whether the failing item sits
// behind a guard that admits it or one that does not.
func TestSelectionKernelShapes(t *testing.T) {
	b, leaves := shapeBatch(t), shapeLeaves()
	all := runOf(0, b.Rows()).list(nil)
	var preds []Expr
	for _, p := range leaves {
		preds = append(preds, p, Not{E: p})
		for _, q := range leaves {
			preds = append(preds,
				Bin{Op: OpAnd, L: p, R: q}, Bin{Op: OpOr, L: p, R: q},
				Bin{Op: OpAnd, L: p, R: Not{E: q}}, Not{E: Bin{Op: OpOr, L: p, R: q}},
				Bin{Op: OpOr, L: Bin{Op: OpAnd, L: p, R: q}, R: Bin{Op: OpAnd, L: Not{E: p}, R: Not{E: q}}})
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 400; i++ { // and three levels of the same, at random
		pick := func() Expr { return preds[rng.Intn(len(preds))] }
		preds = append(preds, Bin{Op: OpAnd + BinOp(rng.Intn(2)), L: pick(), R: Not{E: Bin{Op: OpAnd + BinOp(rng.Intn(2)), L: pick(), R: pick()}}})
	}
	for _, pred := range preds {
		want, _, wantErr := rowLoop(pred, b, all)
		got, err := Filter(context.Background(), b, pred)
		if !sameError(err, wantErr) {
			t.Fatalf("%s\nerror %v, row loop says %v", pred, err, wantErr)
		}
		if err == nil && !sameBatch(got, b.Take(want)) {
			t.Fatalf("%s\nkept %d rows, row loop keeps %d", pred, got.Rows(), len(want))
		}
	}
}

// TestPredicateOverSelectedInput: a predicate handed rows some earlier step
// selected — a run that does not start at row 0, a scattered list — answers
// for exactly those rows, as a selection and (where a projection wants the
// value) as a bool vector, and reports the first failing row among them.
func TestPredicateOverSelectedInput(t *testing.T) {
	b, leaves := shapeBatch(t), shapeLeaves()
	inputs := []selection{
		runOf(0, 0), runOf(40, 41), runOf(3, 177), runOf(150, 210),
		{rows: []int32{0}}, {rows: []int32{2, 3, 150}}, {rows: []int32{1, 4, 5, 6, 90, 91, 92, 151, 209}},
	}
	var odd []int32
	for r := int32(1); r < 210; r += 2 {
		odd = append(odd, r)
	}
	inputs = append(inputs, selection{rows: odd})
	var preds []Expr
	for _, p := range leaves {
		preds = append(preds, p, Not{E: p})
		for _, q := range leaves {
			preds = append(preds, Bin{Op: OpAnd, L: p, R: q}, Bin{Op: OpOr, L: Not{E: p}, R: q})
		}
	}
	for _, pred := range preds {
		for _, in := range inputs {
			rows := in.list(nil)
			want, evaluated, wantErr := rowLoop(pred, b, rows)
			got, err := filterRange(b, pred, in)
			if !sameError(err, wantErr) {
				t.Fatalf("%s over %v: error %v, row loop says %v", pred, in, err, wantErr)
			}
			if err == nil && !slices.Equal(got.list(nil), want) {
				t.Fatalf("%s over %v keeps %v, row loop keeps %v", pred, in, got.list(nil), want)
			}
			if _, isCol := pred.(ColRef); isCol {
				continue // a column's vector is its storage, not a fresh bool slice
			}
			// The same predicate as a value: one bool per input position, up
			// to the failing one.
			v, ok, verr := pred.evalVec(b, in)
			if !sameError(verr, wantErr) {
				t.Fatalf("%s over %v: evalVec error %v, row loop says %v", pred, in, verr, wantErr)
			}
			if ok != evaluated {
				t.Fatalf("%s over %v: evalVec answered %d positions, row loop evaluates %d before %v", pred, in, ok, evaluated, wantErr)
			}
			for i, j := 0, 0; i < ok; i++ {
				holds := j < len(want) && want[j] == rows[i]
				if holds {
					j++
				}
				if v.t != cast.Bool || v.bools[i] != holds {
					t.Fatalf("%s over %v: position %d (row %d) reads %v, want %v", pred, in, i, rows[i], v.bools[i], holds)
				}
			}
		}
	}
}
