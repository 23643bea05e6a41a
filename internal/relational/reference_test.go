package relational

import (
	"fmt"
	"math/big"

	"polystorepp/internal/cast"
)

// This file is the reference semantics of an expression, one boxed row at a
// time, sharing none of the vector kernels: the property tests hold evalSel
// and evalVec to it (vector_test.go), and refGroupBy takes its MIN/MAX order
// from refCompare.

// refEval is the value of e at one row of b, or the error evaluating it
// there. AND/OR evaluate their right side only when the left one leaves the
// answer open; an int64 meeting a float64 widens to it, as in SQL; int64
// arithmetic is exact or fails with ErrOverflow.
func refEval(e Expr, b *cast.Batch, row int) (any, error) {
	switch x := e.(type) {
	case ColRef:
		idx, err := b.Schema().Index(BaseName(x.Name))
		if err != nil {
			return nil, err
		}
		return b.Value(row, idx)
	case Const:
		return x.V, nil
	case Param:
		return nil, x.unbound()
	case Not:
		v, err := refEval(x.E, b, row)
		if err != nil {
			return nil, err
		}
		bv, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: NOT wants bool, got %T", ErrExpr, v)
		}
		return !bv, nil
	case Bin:
		return refBin(x, b, row)
	}
	panic(fmt.Sprintf("refEval: %T is no expression node", e))
}

// refBool is refEval of a predicate: a filter keeps the row where it is
// true, and fails where it is no boolean.
func refBool(e Expr, b *cast.Batch, row int) (bool, error) {
	v, err := refEval(e, b, row)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("%w: predicate returned %T", ErrExpr, v)
	}
	return bv, nil
}

func refBin(x Bin, b *cast.Batch, row int) (any, error) {
	lv, err := refEval(x.L, b, row)
	if err != nil {
		return nil, err
	}
	if x.Op.IsLogical() {
		lb, ok := lv.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants bool lhs, got %T", ErrExpr, x.Op, lv)
		}
		if lb == (x.Op == OpOr) {
			return lb, nil // false AND anything, true OR anything
		}
		rv, err := refEval(x.R, b, row)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants bool rhs, got %T", ErrExpr, x.Op, rv)
		}
		return rb, nil
	}
	rv, err := refEval(x.R, b, row)
	if err != nil {
		return nil, err
	}
	if l, ok := lv.(int64); ok {
		if _, ok := rv.(float64); ok {
			lv = float64(l)
		}
	}
	if r, ok := rv.(int64); ok {
		if _, ok := lv.(float64); ok {
			rv = float64(r)
		}
	}
	if !x.Op.IsComparison() {
		return refArith(x.Op, lv, rv)
	}
	c, err := refCompare(lv, rv)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExpr, err)
	}
	switch x.Op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	}
	return c >= 0, nil
}

// refArith is + - * / on two values: int64s exactly (math/big), float64s
// as IEEE does, and + on strings as concatenation.
func refArith(op BinOp, lv, rv any) (any, error) {
	switch l := lv.(type) {
	case int64:
		r, ok := rv.(int64)
		if !ok {
			return nil, fmt.Errorf("%w: %s int64 vs %T", ErrExpr, op, rv)
		}
		x, y, exact := big.NewInt(l), big.NewInt(r), new(big.Int)
		switch op {
		case OpAdd:
			exact.Add(x, y)
		case OpSub:
			exact.Sub(x, y)
		case OpMul:
			exact.Mul(x, y)
		case OpDiv:
			if r == 0 {
				return nil, ErrDivideByZero
			}
			exact.Quo(x, y)
		default:
			return nil, fmt.Errorf("%w: %s unsupported on %T", ErrExpr, op, lv)
		}
		if !exact.IsInt64() {
			return nil, fmt.Errorf("%w: %d %s %d", ErrOverflow, l, op, r)
		}
		return exact.Int64(), nil
	case float64:
		r, ok := rv.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %s float64 vs %T", ErrExpr, op, rv)
		}
		switch op {
		case OpAdd:
			return l + r, nil
		case OpSub:
			return l - r, nil
		case OpMul:
			return l * r, nil
		case OpDiv:
			return l / r, nil
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

// refCompare orders two boxed values of one Go type: -1, 0 or +1, false
// before true, and a NaN neither below nor above anything. Values of two
// types, or of a type no column has, are cast.ErrTypeMismatch.
func refCompare(a, b any) (int, error) {
	switch x := a.(type) {
	case int64:
		if y, ok := b.(int64); ok {
			return refOrder(x, y), nil
		}
	case float64:
		if y, ok := b.(float64); ok {
			return refOrder(x, y), nil
		}
	case string:
		if y, ok := b.(string); ok {
			return refOrder(x, y), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			rank := map[bool]int{false: 0, true: 1}
			return refOrder(rank[x], rank[y]), nil
		}
	default:
		return 0, fmt.Errorf("%w: unsupported value type %T", cast.ErrTypeMismatch, a)
	}
	return 0, fmt.Errorf("%w: %T vs %T", cast.ErrTypeMismatch, a, b)
}

func refOrder[T int | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
