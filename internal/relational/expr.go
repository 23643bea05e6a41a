package relational

import (
	"errors"
	"fmt"

	"polystorepp/internal/cast"
)

// Expr is a typed scalar expression over the rows of a batch. Expressions
// are the WHERE/SELECT language of the relational engine and are also the IR
// payload adapters receive for filter nodes. The node set is closed (ColRef,
// Const, Param, Bin, Not): operators evaluate through the unexported vector
// methods.
type Expr interface {
	// Eval returns the boxed value of the expression for the given row. It
	// is the reference semantics and serves single-row callers; operators
	// run evalSel (predicates) and evalVec (values).
	Eval(b *cast.Batch, row int) (any, error)
	// evalVec evaluates the node at the positions of the selection in, over
	// typed column slices (vector.go). It returns the values of the first ok
	// positions; ok < in.len() means the row at position ok failed with err,
	// and err is nil otherwise. Operands are evaluated only as far as earlier
	// operands succeeded.
	evalVec(b *cast.Batch, in selection) (v vec, ok int, err error)
	// evalSel evaluates the node as a predicate over the rows in names and
	// returns the ones where it holds. A non-nil err means row fail failed
	// with it, and holds is then the answer for the rows below fail. AND/OR
	// evaluate their right side only on the rows the left side leaves
	// undecided, so the failing row and its error are exactly those of a
	// row-order loop over Eval.
	evalSel(b *cast.Batch, in selection) (holds selection, fail int, err error)
	// ResultType returns the expression's type under the given input schema.
	ResultType(s cast.Schema) (cast.Type, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Sentinel errors.
var (
	// ErrExpr marks an expression the engine cannot evaluate whatever the
	// data: a type mismatch, an unsupported literal or operator.
	ErrExpr = errors.New("relational: expression")
	// ErrDivideByZero is a well-formed expression failing on a value it met.
	ErrDivideByZero = errors.New("relational: integer division by zero")
	// ErrOverflow is an integer SUM whose exact total does not fit an int64.
	ErrOverflow = errors.New("relational: integer overflow")
)

// ColRef references a column by name. Qualified names ("t.col") match the
// unqualified column of the combined schema.
type ColRef struct {
	Name string
}

// BaseName strips an optional table qualifier ("t.col" -> "col").
func BaseName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// Eval implements Expr.
func (c ColRef) Eval(b *cast.Batch, row int) (any, error) {
	idx, err := b.Schema().Index(BaseName(c.Name))
	if err != nil {
		return nil, err
	}
	return b.Value(row, idx)
}

// ResultType implements Expr.
func (c ColRef) ResultType(s cast.Schema) (cast.Type, error) {
	idx, err := s.Index(BaseName(c.Name))
	if err != nil {
		return 0, err
	}
	return s.Col(idx).Type, nil
}

// String implements Expr.
func (c ColRef) String() string { return c.Name }

// Const is a literal value (int64, float64, string, or bool).
type Const struct {
	V any
}

// Eval implements Expr.
func (c Const) Eval(*cast.Batch, int) (any, error) { return c.V, nil }

// ResultType implements Expr.
func (c Const) ResultType(cast.Schema) (cast.Type, error) {
	if t := literalType(c.V); t != 0 {
		return t, nil
	}
	return 0, fmt.Errorf("%w: unsupported literal %T", ErrExpr, c.V)
}

// literalType is the type of a literal value, 0 for a Go type no literal has.
func literalType(v any) cast.Type {
	switch v.(type) {
	case int64:
		return cast.Int64
	case float64:
		return cast.Float64
	case string:
		return cast.String
	case bool:
		return cast.Bool
	}
	return 0
}

// String implements Expr.
func (c Const) String() string {
	if s, ok := c.V.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%v", c.V)
}

// BinOp identifies a binary operator.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var opNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String implements fmt.Stringer.
func (o BinOp) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", int(o))
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// isArith reports whether the operator is + - * or /.
func (o BinOp) isArith() bool { return o >= OpAdd && o <= OpDiv }

// IsLogical reports whether the operator combines two booleans.
func (o BinOp) IsLogical() bool { return o == OpAnd || o == OpOr }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (b Bin) Eval(batch *cast.Batch, row int) (any, error) {
	lv, err := b.L.Eval(batch, row)
	if err != nil {
		return nil, err
	}
	// Short-circuit logical operators.
	if b.Op.IsLogical() {
		lb, ok := lv.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants bool lhs, got %T", ErrExpr, b.Op, lv)
		}
		if b.Op == OpAnd && !lb {
			return false, nil
		}
		if b.Op == OpOr && lb {
			return true, nil
		}
		rv, err := b.R.Eval(batch, row)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants bool rhs, got %T", ErrExpr, b.Op, rv)
		}
		return rb, nil
	}
	rv, err := b.R.Eval(batch, row)
	if err != nil {
		return nil, err
	}
	lv, rv = numericWiden(lv, rv)
	if b.Op.IsComparison() {
		c, err := cast.CompareValues(lv, rv)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExpr, err)
		}
		return cmpHolds[b.Op][c+1], nil
	}
	return evalArith(b.Op, lv, rv)
}

// numericWiden promotes int64 to float64 when the other operand is float64,
// so mixed numeric comparisons and arithmetic behave like SQL.
func numericWiden(a, b any) (any, any) {
	ai, aInt := a.(int64)
	bf, bFlt := b.(float64)
	if aInt && bFlt {
		return float64(ai), bf
	}
	af, aFlt := a.(float64)
	bi, bInt := b.(int64)
	if aFlt && bInt {
		return af, float64(bi)
	}
	return a, b
}

func evalArith(op BinOp, lv, rv any) (any, error) {
	switch l := lv.(type) {
	case int64:
		r, ok := rv.(int64)
		if !ok {
			return nil, fmt.Errorf("%w: %s int64 vs %T", ErrExpr, op, rv)
		}
		if op == OpDiv && r == 0 {
			return nil, ErrDivideByZero
		}
		if op.isArith() {
			return arith(op, l, r), nil
		}
	case float64:
		r, ok := rv.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %s float64 vs %T", ErrExpr, op, rv)
		}
		if op.isArith() {
			return arith(op, l, r), nil
		}
	case string:
		if op == OpAdd {
			r, ok := rv.(string)
			if !ok {
				return nil, fmt.Errorf("%w: + string vs %T", ErrExpr, rv)
			}
			return l + r, nil
		}
	}
	return nil, fmt.Errorf("%w: %s unsupported on %T", ErrExpr, op, lv)
}

// ResultType implements Expr.
func (b Bin) ResultType(s cast.Schema) (cast.Type, error) {
	if b.Op.IsComparison() || b.Op.IsLogical() {
		return cast.Bool, nil
	}
	lt, err := b.L.ResultType(s)
	if err != nil {
		return 0, err
	}
	rt, err := b.R.ResultType(s)
	if err != nil {
		return 0, err
	}
	if lt == cast.Float64 || rt == cast.Float64 {
		return cast.Float64, nil
	}
	if lt == cast.Timestamp {
		return cast.Int64, nil
	}
	return lt, nil
}

// String implements Expr.
func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n Not) Eval(b *cast.Batch, row int) (any, error) {
	v, err := n.E.Eval(b, row)
	if err != nil {
		return nil, err
	}
	bv, ok := v.(bool)
	if !ok {
		return nil, fmt.Errorf("%w: NOT wants bool, got %T", ErrExpr, v)
	}
	return !bv, nil
}

// ResultType implements Expr.
func (n Not) ResultType(cast.Schema) (cast.Type, error) { return cast.Bool, nil }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// EvalBool evaluates e as a boolean predicate for row r.
func EvalBool(e Expr, b *cast.Batch, row int) (bool, error) {
	v, err := e.Eval(b, row)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("%w: predicate returned %T", ErrExpr, v)
	}
	return bv, nil
}
