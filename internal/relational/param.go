package relational

import (
	"errors"
	"fmt"
	"strconv"

	"polystorepp/internal/cast"
)

// ErrUnbound marks a Param that is evaluated, typed or bound without a
// constant of its type at its slot.
var ErrUnbound = errors.New("relational: unbound parameter")

// Param is a literal lifted out of a statement (ParseLifted): it stands for
// the constant at Slot of the statement's bind vector, and carries that
// constant's type, so statements differing only in their constants lower to
// one shape (it is an ir.Hole). Bind replaces it with the constant before
// anything evaluates it; evaluated unbound, it is ErrUnbound, never a zero.
type Param struct {
	Slot int
	Type cast.Type
}

// BindSlot implements ir.Hole.
func (p Param) BindSlot() int { return p.Slot }

// GoString implements ir.Hole: the type alone, never the slot, so a canonical
// encoding of the expression holding p hashes a shape.
func (p Param) GoString() string { return "relational.Param{" + p.Type.String() + "}" }

// ResultType implements Expr.
func (p Param) ResultType(cast.Schema) (cast.Type, error) { return 0, p.unbound() }

// String implements Expr.
func (p Param) String() string { return "?" + strconv.Itoa(p.Slot) }

func (p Param) evalVec(_ *cast.Batch, in selection) (vec, int, error) {
	if in.len() == 0 {
		return vec{}, 0, nil // no row to evaluate, none failing
	}
	return vec{}, 0, p.unbound()
}

func (p Param) evalSel(b *cast.Batch, in selection) (selection, int, error) {
	return valueSel(p, b, in)
}

func (p Param) unbound() error {
	return fmt.Errorf("%w: slot %d (%s)", ErrUnbound, p.Slot, p.Type)
}

// value is the constant bound to p.
func (p Param) value(binds []any) (any, error) {
	if p.Slot < 0 || p.Slot >= len(binds) {
		return nil, fmt.Errorf("%w: slot %d of a bind vector of %d", ErrUnbound, p.Slot, len(binds))
	}
	if v := binds[p.Slot]; literalType(v) == p.Type {
		return v, nil
	}
	return nil, fmt.Errorf("%w: slot %d wants %s, bound to %T", ErrUnbound, p.Slot, p.Type, binds[p.Slot])
}

// Bind returns the attribute value v with every Param replaced by its
// constant from binds. A predicate or a select list gets Consts, so it
// evaluates as the statement parsed with its literals would; a bare Param —
// a lifted LIMIT — gets the constant itself. A value holding no Param comes
// back unchanged.
func Bind(v any, binds []any) (any, error) {
	switch x := v.(type) {
	case Param:
		return x.value(binds)
	case Expr:
		return bindExpr(x, binds)
	case []ProjItem:
		out := make([]ProjItem, len(x))
		for i, it := range x {
			e, err := bindExpr(it.E, binds)
			if err != nil {
				return nil, err
			}
			out[i] = ProjItem{E: e, Name: it.Name}
		}
		return out, nil
	}
	return v, nil
}

func bindExpr(e Expr, binds []any) (Expr, error) {
	switch x := e.(type) {
	case Param:
		v, err := x.value(binds)
		if err != nil {
			return nil, err
		}
		return Const{V: v}, nil
	case Bin:
		l, err := bindExpr(x.L, binds)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, binds)
		if err != nil {
			return nil, err
		}
		return Bin{Op: x.Op, L: l, R: r}, nil
	case Not:
		inner, err := bindExpr(x.E, binds)
		if err != nil {
			return nil, err
		}
		return Not{E: inner}, nil
	}
	return e, nil
}
