package relational

import (
	"errors"
	"fmt"

	"polystorepp/internal/cast"
)

// Expr is a typed scalar expression over the rows of a batch. Expressions
// are the WHERE/SELECT language of the relational engine and are also the IR
// payload adapters receive for filter nodes. The node set is closed (ColRef,
// Const, Param, Bin, Not) and has one evaluator, the unexported vector
// methods (vector.go): evalSel for predicates, evalVec for values. Each
// reports the row that failed and words its error.
type Expr interface {
	// evalVec evaluates the node at the positions of the selection in, over
	// typed column slices. It returns the values of the first ok positions;
	// ok < in.len() means the row at position ok failed with err, and err is
	// nil otherwise. Operands are evaluated only as far as earlier operands
	// succeeded.
	evalVec(b *cast.Batch, in selection) (v vec, ok int, err error)
	// evalSel evaluates the node as a predicate over the rows in names and
	// returns the ones where it holds. A non-nil err means row fail failed
	// with it, and holds is then the answer for the rows below fail. AND/OR
	// evaluate their right side only on the rows the left side leaves
	// undecided, so the failing row and its error are exactly those of a
	// row-order loop.
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
	// ErrOverflow is an int64 + - * / whose exact result, or an integer SUM
	// whose exact total, does not fit an int64.
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

// ResultType implements Expr.
func (n Not) ResultType(cast.Schema) (cast.Type, error) { return cast.Bool, nil }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }
