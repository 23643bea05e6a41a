package relational

import (
	"fmt"
	"math"
	"slices"

	"polystorepp/internal/cast"
)

// This file is the expression evaluator, the one the operators call. It has
// two halves. A predicate evaluates to a selection (evalSel): the rows of its
// input selection where it holds, as a run [lo, hi) or a list of row numbers
// — no bool vector is built for a comparison, AND, OR or NOT, so a range
// predicate over clustered rows allocates nothing and any other comparison
// allocates one list of its survivor count. A value evaluates to a vector
// (evalVec) over typed column slices, with no boxing. A kernel reports where
// evaluation fails and words the error itself, from the operand types it met
// (vec.typeName): a type the operator does not take fails at the first
// position, a zero divisor or an int64 overflow at its own. A comparison of a
// dense column with a constant — every lifted literal binds to one — runs one
// loop per (type, operator) over the raw slice, a vector of positions at a
// time (constSel); other operand shapes read each side per position. A
// hardware kernel for filter or project would replace the typed loops (cmpSel
// — stream compaction — and Bin.arith's) behind hw.Device; nothing above them
// would change.

// selection names rows of a batch in ascending order: the run [lo, hi) while
// rows is nil, the listed rows otherwise. The kernels hand on a list only
// for rows that are not one run.
type selection struct {
	lo, hi int
	rows   []int32
}

func runOf(lo, hi int) selection { return selection{lo: lo, hi: hi} }

// listOf is the selection of an ascending list — as a run when it is one,
// which for distinct ascending rows the two ends tell.
func listOf(rows []int32) selection {
	switch n := len(rows); {
	case n == 0:
		return selection{}
	case int(rows[n-1]-rows[0]) == n-1:
		return runOf(int(rows[0]), int(rows[n-1])+1)
	}
	return selection{rows: rows}
}

func (s selection) len() int {
	if s.rows != nil {
		return len(s.rows)
	}
	return s.hi - s.lo
}

// at returns the row at position i. The receiver is a pointer, like
// operand.at's, because the kernels call both once per row: inlined with a
// value receiver, each call copies the struct through the stack, and how long
// that takes turns on where the goroutine's frame happens to lie (measured:
// the same filter 5x slower on a pool worker than inline).
func (s *selection) at(i int) int {
	if s.rows != nil {
		return int(s.rows[i])
	}
	return s.lo + i
}

// below returns the rows under row.
func (s selection) below(row int) selection {
	if s.rows != nil {
		n, _ := slices.BinarySearch(s.rows, int32(row))
		return listOf(s.rows[:n])
	}
	return runOf(s.lo, max(s.lo, min(s.hi, row)))
}

// span returns positions [p, q), sharing s's list.
func (s selection) span(p, q int) selection {
	if s.rows != nil {
		return listOf(s.rows[p:q])
	}
	return runOf(s.lo+p, s.lo+q)
}

// minus returns the rows of s that t, a subset of it, does not name.
func (s selection) minus(t selection) selection {
	n := s.len() - t.len()
	switch {
	case t.len() == 0:
		return s
	case n == 0:
		return selection{}
	case s.rows == nil && t.rows == nil && t.lo == s.lo:
		return runOf(t.hi, s.hi)
	case s.rows == nil && t.rows == nil && t.hi == s.hi:
		return runOf(s.lo, t.lo)
	}
	out := make([]int32, 0, n)
	for i, j := 0, 0; i < s.len(); i++ {
		if r := s.at(i); j < t.len() && t.at(j) == r {
			j++
		} else {
			out = append(out, int32(r))
		}
	}
	return listOf(out)
}

// union merges two disjoint selections.
func union(s, t selection) selection {
	switch {
	case s.len() == 0:
		return t
	case t.len() == 0:
		return s
	case s.rows == nil && t.rows == nil && s.hi == t.lo:
		return runOf(s.lo, t.hi)
	case s.rows == nil && t.rows == nil && t.hi == s.lo:
		return runOf(t.lo, s.hi)
	}
	out := make([]int32, 0, s.len()+t.len())
	i, j := 0, 0
	for i < s.len() && j < t.len() {
		if a, b := s.at(i), t.at(j); a < b {
			out, i = append(out, int32(a)), i+1
		} else {
			out, j = append(out, int32(b)), j+1
		}
	}
	for ; i < s.len(); i++ {
		out = append(out, int32(s.at(i)))
	}
	for ; j < t.len(); j++ {
		out = append(out, int32(t.at(j)))
	}
	return listOf(out)
}

// list returns the selection's rows as a list, appended to dst.
func (s selection) list(dst []int32) []int32 {
	if s.rows != nil {
		return append(dst, s.rows...)
	}
	for r := s.lo; r < s.hi; r++ {
		dst = append(dst, int32(r))
	}
	return dst
}

// vec is the value of one expression at the positions of a selection.
type vec struct {
	// t is Int64 (Timestamp columns read as Int64), Float64, String or Bool,
	// naming the slice in use; 0 marks a constant of some other Go type,
	// which no operator accepts, and goType then names that type.
	t      cast.Type
	goType string
	ints   []int64
	flts   []float64
	strs   []string
	bools  []bool
	// sel is set on column storage read through a list: position i reads
	// element sel[i]. Column storage under a run starts at the run's first
	// row, and computed vectors are dense (position i reads element i);
	// constants read element 0.
	sel   []int32
	konst bool
}

// operand is one typed slice of a vec with its addressing.
type operand[T any] struct {
	v     []T
	sel   []int32
	konst bool
}

func (o *operand[T]) at(i int) T {
	switch {
	case o.konst:
		return o.v[0]
	case o.sel != nil:
		return o.v[o.sel[i]]
	}
	return o.v[i]
}

func intsOf(v vec) operand[int64]   { return operand[int64]{v.ints, v.sel, v.konst} }
func fltsOf(v vec) operand[float64] { return operand[float64]{v.flts, v.sel, v.konst} }
func strsOf(v vec) operand[string]  { return operand[string]{v.strs, v.sel, v.konst} }
func boolsOf(v vec) operand[bool]   { return operand[bool]{v.bools, v.sel, v.konst} }

// typeName names v's type in an error, as Go names the type of its values.
func (v vec) typeName() string {
	if v.t == 0 {
		return v.goType
	}
	return v.t.String()
}

// notBool is what evalSel answers for an expression that evaluates, but not
// to a boolean, naming the type it evaluates to: the node above (or the
// filter) words the error.
type notBool string

func (n notBool) Error() string { return "not a boolean: " + string(n) }

// under returns a column's storage as positions of in address it.
func under[T any](col []T, in selection) []T {
	if in.rows != nil {
		return col
	}
	return col[in.lo:in.hi]
}

func (c ColRef) evalVec(b *cast.Batch, in selection) (vec, int, error) {
	if in.len() == 0 {
		return vec{}, 0, nil
	}
	idx, err := b.Schema().Index(BaseName(c.Name))
	if err != nil {
		return vec{}, 0, err
	}
	v := vec{t: b.Schema().Col(idx).Type, sel: in.rows}
	switch v.t {
	case cast.Int64, cast.Timestamp:
		v.t = cast.Int64
		col, _ := b.Ints(idx)
		v.ints = under(col, in)
	case cast.Float64:
		col, _ := b.Floats(idx)
		v.flts = under(col, in)
	case cast.String:
		col, _ := b.Strings(idx)
		v.strs = under(col, in)
	case cast.Bool:
		col, _ := b.Bools(idx)
		v.bools = under(col, in)
	}
	return v, in.len(), nil
}

func (c Const) evalVec(_ *cast.Batch, in selection) (vec, int, error) {
	v := vec{konst: true}
	switch x := c.V.(type) {
	case int64:
		v.t, v.ints = cast.Int64, []int64{x}
	case float64:
		v.t, v.flts = cast.Float64, []float64{x}
	case string:
		v.t, v.strs = cast.String, []string{x}
	case bool:
		v.t, v.bools = cast.Bool, []bool{x}
	default:
		v.goType = fmt.Sprintf("%T", x)
	}
	return v, in.len(), nil
}

func (c ColRef) evalSel(b *cast.Batch, in selection) (selection, int, error) {
	return valueSel(c, b, in)
}
func (c Const) evalSel(b *cast.Batch, in selection) (selection, int, error) {
	return valueSel(c, b, in)
}

// valueSel is evalSel for a node that produces values: a bool column or
// constant selects the rows where it is true, anything else is notBool at
// the first row.
func valueSel(e Expr, b *cast.Batch, in selection) (selection, int, error) {
	v, ok, err := e.evalVec(b, in)
	if ok > 0 && v.t != cast.Bool {
		return selection{}, in.at(0), notBool(v.typeName())
	}
	count, first, last, keep := 0, 0, -1, boolsOf(v)
	for i := 0; i < ok; i++ {
		if keep.at(i) {
			if count == 0 {
				first = i
			}
			count, last = count+1, i
		}
	}
	out := in.span(first, last+1)
	if count != last-first+1 {
		rows := make([]int32, 0, count)
		for i := first; i <= last; i++ {
			if keep.at(i) {
				rows = append(rows, int32(in.at(i)))
			}
		}
		out = selection{rows: rows}
	}
	if err != nil {
		return out, in.at(ok), err
	}
	return out, 0, nil
}

// boolVec is evalVec for a node that produces a selection — a comparison, a
// logical operator, NOT — where a projection wants its value per row.
func boolVec(x Expr, b *cast.Batch, in selection) (vec, int, error) {
	holds, fail, err := x.evalSel(b, in)
	n := in.len()
	if err != nil {
		n = in.below(fail).len()
	}
	out := make([]bool, n)
	for i, j := 0, 0; j < holds.len(); i++ {
		if in.at(i) == holds.at(j) {
			out[i], j = true, j+1
		}
	}
	return vec{t: cast.Bool, bools: out}, n, err
}

func (x Not) evalVec(b *cast.Batch, in selection) (vec, int, error) { return boolVec(x, b, in) }

func (x Not) evalSel(b *cast.Batch, in selection) (selection, int, error) {
	holds, fail, err := x.E.evalSel(b, in)
	if t, ok := err.(notBool); ok {
		return selection{}, fail, fmt.Errorf("%w: NOT wants bool, got %s", ErrExpr, string(t))
	}
	if err != nil {
		in = in.below(fail)
	}
	return in.minus(holds), fail, err
}

// operands evaluates both sides of x: the values of the first m positions,
// and of the failure that stopped it short of in (if one did) the row and
// the error. The right side is evaluated only as far as the left succeeded.
func (x Bin) operands(b *cast.Batch, in selection) (l, r vec, m, fail int, err error) {
	l, nl, lerr := x.L.evalVec(b, in)
	r, m, rerr := x.R.evalVec(b, in.span(0, nl))
	switch {
	case m < nl:
		return l, r, m, in.at(m), rerr
	case lerr != nil:
		return l, r, m, in.at(nl), lerr
	}
	return l, r, m, 0, nil
}

func (x Bin) evalVec(b *cast.Batch, in selection) (vec, int, error) {
	if x.Op.IsComparison() || x.Op.IsLogical() {
		return boolVec(x, b, in)
	}
	l, r, m, _, err := x.operands(b, in)
	out, ok, aerr := x.arith(l, r, m)
	if ok < m {
		return out, ok, aerr
	}
	return out, m, err
}

func (x Bin) evalSel(b *cast.Batch, in selection) (selection, int, error) {
	switch {
	case x.Op.IsLogical():
		return x.logicalSel(b, in)
	case !x.Op.IsComparison():
		return valueSel(x, b, in)
	}
	l, r, m, fail, err := x.operands(b, in)
	holds, cerr := x.compare(l, r, in, m)
	if cerr != nil {
		return selection{}, in.at(0), cerr
	}
	return holds, fail, err
}

// logicalSel is AND/OR. AND hands the right side the rows the left side
// keeps; OR hands it the rows the left side drops and merges what the two
// keep. Either way the right side sees only rows the left leaves undecided —
// which is the short circuit — and only rows below the left side's failure,
// so the lowest failing row and its error are a row-order loop's.
func (x Bin) logicalSel(b *cast.Batch, in selection) (selection, int, error) {
	l, fail, err := x.L.evalSel(b, in)
	if t, ok := err.(notBool); ok {
		return selection{}, fail, fmt.Errorf("%w: %s wants bool lhs, got %s", ErrExpr, x.Op, string(t))
	}
	if err != nil {
		in = in.below(fail)
	}
	open := l
	if x.Op == OpOr {
		open = in.minus(l)
	}
	r, rfail, rerr := x.R.evalSel(b, open)
	if t, ok := rerr.(notBool); ok {
		r, rerr = selection{}, fmt.Errorf("%w: %s wants bool rhs, got %s", ErrExpr, x.Op, string(t))
	}
	if rerr != nil {
		fail, err, l = rfail, rerr, l.below(rfail)
	}
	if x.Op == OpOr {
		r = union(l, r)
	}
	return r, fail, err
}

// widen converts the int64 side of an int64-float64 pair to float64.
func widen(l, r vec, m int) (vec, vec) {
	switch {
	case l.t == cast.Int64 && r.t == cast.Float64:
		l = convert(l, m)
	case l.t == cast.Float64 && r.t == cast.Int64:
		r = convert(r, m)
	}
	return l, r
}

// compare runs a comparison over the first m positions of its operands and
// returns the rows of in where it holds, or the error of position 0 for
// operand types it does not compare.
func (x Bin) compare(l, r vec, in selection, m int) (selection, error) {
	if m == 0 {
		return selection{}, nil
	}
	switch l, r = widen(l, r, m); {
	case l.t == 0:
		return selection{}, fmt.Errorf("%w: %v: unsupported value type %s", ErrExpr, cast.ErrTypeMismatch, l.typeName())
	case l.t != r.t:
		return selection{}, fmt.Errorf("%w: %v: %s vs %s", ErrExpr, cast.ErrTypeMismatch, l.typeName(), r.typeName())
	case l.t == cast.Int64:
		return cmpSel(x.Op, intsOf(l), intsOf(r), in, m), nil
	case l.t == cast.Float64:
		return cmpSel(x.Op, fltsOf(l), fltsOf(r), in, m), nil
	case l.t == cast.String:
		return cmpSel(x.Op, strsOf(l), strsOf(r), in, m), nil
	}
	return cmpSel(x.Op, intsOf(convert(l, m)), intsOf(convert(r, m)), in, m), nil
}

// arith runs + - * / over the first m positions of its operands and returns
// how many succeeded: fewer than m means that position fails with the error
// returned (the first zero divisor or int64 overflow, or position 0 for
// operand types the operator does not accept).
func (x Bin) arith(l, r vec, m int) (vec, int, error) {
	if m == 0 {
		return vec{}, 0, nil
	}
	l, r = widen(l, r, m)
	switch concat := l.t == cast.String && x.Op == OpAdd; {
	case l.t != r.t && (l.t == cast.Int64 || l.t == cast.Float64 || concat):
		return vec{}, 0, fmt.Errorf("%w: %s %s vs %s", ErrExpr, x.Op, l.typeName(), r.typeName())
	case l.t == cast.Int64 && x.Op.isArith():
		li, ri, out := intsOf(l), intsOf(r), make([]int64, m)
		for i := range out {
			v, err := intArith(x.Op, li.at(i), ri.at(i))
			if err != nil {
				return vec{t: cast.Int64, ints: out[:i]}, i, err
			}
			out[i] = v
		}
		return vec{t: cast.Int64, ints: out}, m, nil
	case l.t == cast.Float64 && x.Op.isArith():
		return vec{t: cast.Float64, flts: arithVec(x.Op, fltsOf(l), fltsOf(r), m)}, m, nil
	case concat:
		ls, rs, out := strsOf(l), strsOf(r), make([]string, m)
		for i := range out {
			out[i] = ls.at(i) + rs.at(i)
		}
		return vec{t: cast.String, strs: out}, m, nil
	}
	return vec{}, 0, fmt.Errorf("%w: %s unsupported on %s", ErrExpr, x.Op, l.typeName())
}

// convert renders the first m positions of an int64 vector as float64 (int
// meets float, as in SQL) or of a bool vector as 0/1 (booleans order false
// before true, through the int64 kernel).
func convert(v vec, m int) vec {
	if v.konst {
		m = 1
	}
	out := vec{konst: v.konst}
	if v.t == cast.Int64 {
		out.t, out.flts = cast.Float64, make([]float64, m)
		for i, in := 0, intsOf(v); i < m; i++ {
			out.flts[i] = float64(in.at(i))
		}
		return out
	}
	out.t, out.ints = cast.Int64, make([]int64, m)
	for i, in := 0, boolsOf(v); i < m; i++ {
		if in.at(i) {
			out.ints[i] = 1
		}
	}
	return out
}

// column returns the first n positions of v as the typed slice cast.BatchOf
// takes for a column.
func (v vec) column(n int) any {
	switch v.t {
	case cast.Int64:
		return dense(intsOf(v), n)
	case cast.Float64:
		return dense(fltsOf(v), n)
	case cast.String:
		return dense(strsOf(v), n)
	case cast.Bool:
		return dense(boolsOf(v), n)
	}
	return nil
}

// dense returns the first n positions of o as one slice: the storage itself
// when position i already reads element i.
func dense[T any](o operand[T], n int) []T {
	if !o.konst && o.sel == nil {
		return o.v[:n:n]
	}
	out := make([]T, n)
	for i := range out {
		out[i] = o.at(i)
	}
	return out
}

// cmpHolds[op] says whether a comparison holds for a left operand below,
// equal to, or above the right one.
var cmpHolds = [...][3]bool{
	OpEq: {false, true, false}, OpNe: {true, false, true},
	OpLt: {true, false, false}, OpLe: {true, true, false},
	OpGt: {false, false, true}, OpGe: {false, true, true},
}

// holdsFor compares a and b: a NaN is neither below nor above anything, so
// it compares equal to everything.
func holdsFor[T int64 | float64 | string](holds [3]bool, a, b T) bool {
	switch {
	case a < b:
		return holds[0]
	case a > b:
		return holds[2]
	}
	return holds[1]
}

// mirrored[op] holds for (b, a) wherever op holds for (a, b).
var mirrored = [...]BinOp{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// cmpSel compares m positions and returns the rows of in where the
// comparison holds. The first pass counts the survivors and finds the first
// and the last; when they are consecutive positions the answer is a span of
// in and nothing is allocated, otherwise a second pass over that stretch
// fills a list of exactly the count. A dense column against a constant, on
// either side, takes constSel's loops over the raw slice.
func cmpSel[T int64 | float64 | string](op BinOp, l, r operand[T], in selection, m int) selection {
	switch {
	case r.konst && !l.konst && l.sel == nil:
		return constSel(op, l.v[:m], r.v[0], in)
	case l.konst && !r.konst && r.sel == nil:
		return constSel(mirrored[op], r.v[:m], l.v[0], in)
	}
	holds, count, first, last := cmpHolds[op], 0, 0, -1
	for i := 0; i < m; i++ {
		if holdsFor(holds, l.at(i), r.at(i)) {
			if count == 0 {
				first = i
			}
			count, last = count+1, i
		}
	}
	if count == last-first+1 {
		return in.span(first, last+1)
	}
	rows := make([]int32, 0, count)
	for i := first; i <= last; i++ {
		if holdsFor(holds, l.at(i), r.at(i)) {
			rows = append(rows, int32(in.at(i)))
		}
	}
	return selection{rows: rows}
}

// constSel is cmpSel for v[i] op c over every position of v, two passes
// as cmpSel's, each a vector of positions at a time through matchConst.
func constSel[T int64 | float64 | string](op BinOp, v []T, c T, in selection) selection {
	var pos [vectorRows]int32
	count, first, last := 0, 0, -1
	for lo := 0; lo < len(v); lo += vectorRows {
		if k := matchConst(op, v[lo:min(lo+vectorRows, len(v))], c, &pos); k > 0 {
			if count == 0 {
				first = lo + int(pos[0])
			}
			count, last = count+k, lo+int(pos[k-1])
		}
	}
	if count == last-first+1 {
		return in.span(first, last+1)
	}
	rows := make([]int32, 0, count)
	for lo := first; lo <= last; lo += vectorRows {
		k := matchConst(op, v[lo:min(lo+vectorRows, last+1)], c, &pos)
		if in.rows != nil {
			for _, p := range pos[:k] {
				rows = append(rows, in.rows[lo+int(p)])
			}
			continue
		}
		for _, p := range pos[:k] {
			rows = append(rows, int32(in.lo+lo)+p)
		}
	}
	return selection{rows: rows}
}

// matchConst writes to pos the positions of v, at most vectorRows of them,
// where v[i] op c holds, and returns how many. Each operator is its own loop,
// written so that a NaN on either side compares equal (holdsFor's rule).
func matchConst[T int64 | float64 | string](op BinOp, v []T, c T, pos *[vectorRows]int32) int {
	k := 0
	switch op {
	case OpEq:
		for i, a := range v {
			pos[k] = int32(i)
			if !(a < c || a > c) {
				k++
			}
		}
	case OpNe:
		for i, a := range v {
			pos[k] = int32(i)
			if a < c || a > c {
				k++
			}
		}
	case OpLt:
		for i, a := range v {
			pos[k] = int32(i)
			if a < c {
				k++
			}
		}
	case OpLe:
		for i, a := range v {
			pos[k] = int32(i)
			if !(a > c) {
				k++
			}
		}
	case OpGt:
		for i, a := range v {
			pos[k] = int32(i)
			if a > c {
				k++
			}
		}
	case OpGe:
		for i, a := range v {
			pos[k] = int32(i)
			if !(a < c) {
				k++
			}
		}
	}
	return k
}

// intArith is one int64 + - * /, failing on a zero divisor and on a result
// the int64 range does not hold.
func intArith(op BinOp, a, b int64) (int64, error) {
	var v int64
	var over bool
	switch op {
	case OpAdd:
		v = a + b
		over = (a^v)&(b^v) < 0 // the sum's sign is neither operand's
	case OpSub:
		v = a - b
		over = (a^b)&(a^v) < 0 // the signs differ, and the difference lost a's
	case OpMul:
		v = a * b
		over = a != 0 && (v/a != b || a == -1 && b == math.MinInt64)
	default:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		v, over = a/b, a == math.MinInt64 && b == -1
	}
	if over {
		return 0, fmt.Errorf("%w: %d %s %d", ErrOverflow, a, op, b)
	}
	return v, nil
}

func arithVec(op BinOp, l, r operand[float64], m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		switch a, b := l.at(i), r.at(i); op {
		case OpAdd:
			out[i] = a + b
		case OpSub:
			out[i] = a - b
		case OpMul:
			out[i] = a * b
		default:
			out[i] = a / b
		}
	}
	return out
}
