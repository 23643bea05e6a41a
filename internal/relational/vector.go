package relational

import (
	"fmt"

	"polystorepp/internal/cast"
)

// This file is the vector evaluator, the only one the operators call: every
// Expr node evaluates over a batch and a selection vector of row numbers in
// one pass over typed column slices, with no boxing. Row-at-a-time Eval
// remains the reference the property tests compare against and the source of
// every error value: a kernel reports only *where* evaluation fails, and the
// error is whatever Eval returns for that row. A hardware kernel for filter
// or project would replace the typed loops (cmpVec, arithVec) behind
// hw.Device; nothing above them would change.

// vec is the value of one expression at the positions of a selection.
type vec struct {
	// t is Int64 (Timestamp columns read as Int64), Float64, String or Bool,
	// naming the slice in use; 0 marks a constant of some other Go type,
	// which no operator accepts.
	t     cast.Type
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	// sel is set on column storage: position i reads element sel[i]. Computed
	// vectors are dense (position i reads element i), constants read element 0.
	sel   []int32
	konst bool
}

// operand is one typed slice of a vec with its addressing.
type operand[T any] struct {
	v     []T
	sel   []int32
	konst bool
}

func (o operand[T]) at(i int) T {
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

// rowErr is the error Eval reports for the row at position i of sel (nil:
// row i) — the error of a position a kernel found failing.
func rowErr(e Expr, b *cast.Batch, sel []int32, i int) error {
	if sel != nil {
		i = int(sel[i])
	}
	if _, err := e.Eval(b, i); err != nil {
		return err
	}
	return fmt.Errorf("%w: vector and row evaluation of %s disagree at row %d", ErrExpr, e, i)
}

func (c ColRef) evalVec(b *cast.Batch, sel []int32, n int) (vec, int, error) {
	if n == 0 {
		return vec{}, 0, nil
	}
	idx, err := b.Schema().Index(BaseName(c.Name))
	if err != nil {
		return vec{}, 0, err
	}
	v := vec{t: b.Schema().Col(idx).Type, sel: sel}
	switch v.t {
	case cast.Int64, cast.Timestamp:
		v.t = cast.Int64
		v.ints, _ = b.Ints(idx)
	case cast.Float64:
		v.flts, _ = b.Floats(idx)
	case cast.String:
		v.strs, _ = b.Strings(idx)
	case cast.Bool:
		v.bools, _ = b.Bools(idx)
	}
	return v, n, nil
}

func (c Const) evalVec(_ *cast.Batch, _ []int32, n int) (vec, int, error) {
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
	}
	return v, n, nil
}

func (x Not) evalVec(b *cast.Batch, sel []int32, n int) (vec, int, error) {
	v, ok, err := x.E.evalVec(b, sel, n)
	if ok > 0 && v.t != cast.Bool {
		return vec{}, 0, rowErr(x, b, sel, 0)
	}
	in, out := boolsOf(v), make([]bool, ok)
	for i := range out {
		out[i] = !in.at(i)
	}
	return vec{t: cast.Bool, bools: out}, ok, err
}

func (x Bin) evalVec(b *cast.Batch, sel []int32, n int) (vec, int, error) {
	if x.Op.IsLogical() {
		return x.evalLogical(b, sel, n)
	}
	l, nl, lerr := x.L.evalVec(b, sel, n)
	r, m, rerr := x.R.evalVec(b, sel, nl)
	out, ok := x.apply(l, r, m)
	switch {
	case ok < m:
		return out, ok, rowErr(x, b, sel, ok)
	case m < nl:
		return out, m, rerr
	}
	return out, nl, lerr
}

// evalLogical is AND/OR: the left value decides a row when it is false (AND)
// or true (OR); only the other rows evaluate the right side.
func (x Bin) evalLogical(b *cast.Batch, sel []int32, n int) (vec, int, error) {
	l, nl, lerr := x.L.evalVec(b, sel, n)
	if nl > 0 && l.t != cast.Bool {
		return vec{}, 0, rowErr(x, b, sel, 0)
	}
	lb, out := boolsOf(l), make([]bool, nl)
	undecided, open := x.Op == OpAnd, 0 // the left value that decides nothing
	for i := range out {
		if out[i] = lb.at(i); out[i] == undecided {
			open++
		}
	}
	pos := make([]int32, 0, open) // positions the left side leaves undecided
	for i, v := range out {
		if v == undecided {
			pos = append(pos, int32(i))
		}
	}
	rows := pos
	if sel != nil {
		rows = make([]int32, open)
		for j, p := range pos {
			rows[j] = sel[p]
		}
	}
	r, nr, rerr := x.R.evalVec(b, rows, open)
	res := vec{t: cast.Bool, bools: out}
	if nr > 0 && r.t != cast.Bool {
		return res, int(pos[0]), rowErr(x, b, sel, int(pos[0]))
	}
	rb := boolsOf(r)
	for j := 0; j < nr; j++ {
		out[pos[j]] = rb.at(j)
	}
	if nr < open {
		return res, int(pos[nr]), rerr
	}
	return res, nl, lerr
}

// apply runs a comparison or arithmetic operator over the first m positions
// of its operands and returns how many succeeded: fewer than m means that
// position fails (the first zero divisor, or position 0 for operand types
// the operator does not accept).
func (x Bin) apply(l, r vec, m int) (vec, int) {
	if m == 0 {
		return vec{}, 0
	}
	switch {
	case l.t == cast.Int64 && r.t == cast.Float64:
		l = convert(l, m)
	case l.t == cast.Float64 && r.t == cast.Int64:
		r = convert(r, m)
	}
	if l.t != r.t {
		return vec{}, 0
	}
	if x.Op.IsComparison() {
		var out []bool
		switch l.t {
		case cast.Int64:
			out = cmpVec(x.Op, intsOf(l), intsOf(r), m)
		case cast.Float64:
			out = cmpVec(x.Op, fltsOf(l), fltsOf(r), m)
		case cast.String:
			out = cmpVec(x.Op, strsOf(l), strsOf(r), m)
		case cast.Bool:
			out = cmpVec(x.Op, intsOf(convert(l, m)), intsOf(convert(r, m)), m)
		default:
			return vec{}, 0
		}
		return vec{t: cast.Bool, bools: out}, m
	}
	if !x.Op.isArith() {
		return vec{}, 0
	}
	switch l.t {
	case cast.Int64:
		li, ri, ok := intsOf(l), intsOf(r), m
		if x.Op == OpDiv {
			for ok = 0; ok < m && ri.at(ok) != 0; ok++ {
			}
		}
		return vec{t: cast.Int64, ints: arithVec(x.Op, li, ri, ok)}, ok
	case cast.Float64:
		return vec{t: cast.Float64, flts: arithVec(x.Op, fltsOf(l), fltsOf(r), m)}, m
	case cast.String:
		if x.Op == OpAdd {
			ls, rs, out := strsOf(l), strsOf(r), make([]string, m)
			for i := range out {
				out[i] = ls.at(i) + rs.at(i)
			}
			return vec{t: cast.String, strs: out}, m
		}
	}
	return vec{}, 0
}

// convert renders the first m positions of an int64 vector as float64 (int
// meets float: numericWiden per row) or of a bool vector as 0/1 (booleans
// order false before true, through the int64 kernel).
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
// equal to, or above the right one, indexed by CompareValues' result + 1.
var cmpHolds = [...][3]bool{
	OpEq: {false, true, false}, OpNe: {true, false, true},
	OpLt: {true, false, false}, OpLe: {true, true, false},
	OpGt: {false, false, true}, OpGe: {false, true, true},
}

// cmpVec compares m positions in cast.CompareValues' ordering: a NaN is
// neither below nor above anything, so it compares equal to everything.
func cmpVec[T int64 | float64 | string](op BinOp, l, r operand[T], m int) []bool {
	holds, out := cmpHolds[op], make([]bool, m)
	for i := range out {
		switch a, b := l.at(i), r.at(i); {
		case a < b:
			out[i] = holds[0]
		case a > b:
			out[i] = holds[2]
		default:
			out[i] = holds[1]
		}
	}
	return out
}

// arith is one + - * / ; the caller has excluded a zero integer divisor.
func arith[T int64 | float64](op BinOp, a, b T) T {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	}
	return a / b
}

func arithVec[T int64 | float64](op BinOp, l, r operand[T], m int) []T {
	out := make([]T, m)
	for i := range out {
		out[i] = arith(op, l.at(i), r.at(i))
	}
	return out
}
