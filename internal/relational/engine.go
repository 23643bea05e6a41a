package relational

import (
	"context"
	"fmt"

	"polystorepp/internal/cast"
)

// Engine plans and executes SQL against one store. It is the "native
// data-processing engine" the polystore adapters talk to.
type Engine struct {
	store *Store
}

// NewEngine returns an engine over the store.
func NewEngine(store *Store) *Engine { return &Engine{store: store} }

// Store returns the underlying store.
func (e *Engine) Store() *Store { return e.store }

// Query parses, plans, and executes sql, returning the result and the
// per-operator stats of the executed plan: QueryStream with no sink.
func (e *Engine) Query(ctx context.Context, sql string) (*cast.Batch, []OpStats, error) {
	return e.QueryStream(ctx, sql, nil)
}

// QueryStream is Query with incremental result delivery: every batch the
// root operator yields is handed to emit in order before the next one is
// pulled (RunEmit), and the returned batch is the concatenation of exactly
// the emitted batches — the invariant streaming responses are pinned
// against. A nil emit only drains. Stats are collected after the drain.
func (e *Engine) QueryStream(ctx context.Context, sql string, emit func(*cast.Batch) error) (*cast.Batch, []OpStats, error) {
	plan, err := e.Plan(sql)
	if err != nil {
		return nil, nil, err
	}
	out, err := RunEmit(ctx, plan, emit)
	if err != nil {
		return nil, nil, err
	}
	return out, WalkStats(plan), nil
}

// Plan parses sql and lowers it to a physical operator tree.
func (e *Engine) Plan(sql string) (Operator, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.PlanStmt(stmt)
}

// PlanStmt lowers a parsed statement to a physical plan. It picks an index
// scan when the WHERE clause contains a usable comparison on an indexed
// column of the base table, and left-deep hash joins in clause order.
func (e *Engine) PlanStmt(stmt *SelectStmt) (Operator, error) {
	base, err := e.store.Table(stmt.From)
	if err != nil {
		return nil, err
	}
	var op Operator
	if scan, ok := e.tryIndexScan(base, stmt); ok {
		op = scan
	} else {
		op = NewSeqScan(base)
	}

	for _, jc := range stmt.Joins {
		right, err := e.store.Table(jc.Table)
		if err != nil {
			return nil, err
		}
		leftCol, rightCol := jc.LeftCol, jc.RightCol
		// Allow either ON order: the side naming a column of the new table
		// becomes the build side key.
		if !right.Schema().Has(baseName(rightCol)) && right.Schema().Has(baseName(leftCol)) {
			leftCol, rightCol = rightCol, leftCol
		}
		j, err := NewHashJoin(op, NewSeqScan(right), leftCol, rightCol)
		if err != nil {
			return nil, err
		}
		op = j
	}

	if stmt.Where != nil {
		op = NewFilter(op, stmt.Where)
	}

	hasAgg := false
	for _, it := range stmt.Items {
		if it.Agg != nil {
			hasAgg = true
		}
	}
	switch {
	case hasAgg || len(stmt.GroupBy) > 0:
		var aggs []AggSpec
		for _, it := range stmt.Items {
			if it.Agg != nil {
				aggs = append(aggs, *it.Agg)
			}
		}
		g, err := NewGroupBy(op, stmt.GroupBy, aggs)
		if err != nil {
			return nil, err
		}
		op = g
	case !stmt.Star:
		items := make([]ProjItem, 0, len(stmt.Items))
		for _, it := range stmt.Items {
			items = append(items, ProjItem{E: it.Expr, Name: it.As})
		}
		p, err := NewProject(op, items)
		if err != nil {
			return nil, err
		}
		op = p
	}

	if len(stmt.OrderBy) > 0 {
		keys := make([]cast.SortKey, 0, len(stmt.OrderBy))
		for _, oi := range stmt.OrderBy {
			keys = append(keys, cast.SortKey{Col: baseName(oi.Col), Desc: oi.Desc})
		}
		op = NewSort(op, keys...)
	}
	if stmt.Limit >= 0 {
		// A limit with no materializing ancestor (no sort/group-by) can stop
		// pulling early; keep the subtree streaming so the bulk fast path
		// does not turn LIMIT-N into a whole-table scan.
		markStreaming(op)
		op = NewLimit(op, stmt.Limit)
	}
	return op, nil
}

// markStreaming disables the bulk fast path on the filter/project/hash-join
// chain under a limit. It stops at fully materializing operators (sort,
// group-by, merge join): they drain their input entirely regardless, so bulk
// partitioned execution below them is pure win. A hash join streams its
// probe side, so it is marked too and the marking continues down its left
// (probe) child; the build side always drains in full either way.
func markStreaming(op Operator) {
	switch o := op.(type) {
	case *FilterOp:
		o.Stream = true
		markStreaming(o.Child)
	case *ProjectOp:
		o.Stream = true
		markStreaming(o.Child)
	case *HashJoinOp:
		o.Stream = true
		markStreaming(o.Left)
	case *LimitOp:
		markStreaming(o.Child)
	}
}

// tryIndexScan inspects the WHERE clause for a single comparison against a
// B-tree-indexed int column of the base table and converts it to an index
// range scan. The full WHERE predicate is still applied afterwards by the
// caller, so over-approximation is safe.
func (e *Engine) tryIndexScan(t *Table, stmt *SelectStmt) (Operator, bool) {
	conds := conjuncts(stmt.Where)
	for _, c := range conds {
		bin, ok := c.(Bin)
		if !ok || !bin.Op.IsComparison() {
			continue
		}
		col, cOK := bin.L.(ColRef)
		lit, lOK := bin.R.(Const)
		op := bin.Op
		if !cOK || !lOK {
			// Try the flipped orientation: <lit> op <col>.
			if col2, ok2 := bin.R.(ColRef); ok2 {
				if lit2, ok3 := bin.L.(Const); ok3 {
					col, lit = col2, lit2
					op = flipCmp(op)
					cOK, lOK = true, true
				}
			}
		}
		if !cOK || !lOK {
			continue
		}
		name := baseName(col.Name)
		if !t.HasBTree(name) {
			continue
		}
		v, ok := lit.V.(int64)
		if !ok {
			continue
		}
		const minI, maxI = int64(-1) << 62, int64(1) << 62
		switch op {
		case OpEq:
			return NewIndexScan(t, name, v, v), true
		case OpLt:
			return NewIndexScan(t, name, minI, v-1), true
		case OpLe:
			return NewIndexScan(t, name, minI, v), true
		case OpGt:
			return NewIndexScan(t, name, v+1, maxI), true
		case OpGe:
			return NewIndexScan(t, name, v, maxI), true
		}
	}
	return nil, false
}

// conjuncts splits a predicate on top-level ANDs.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(Bin); ok && b.Op == OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
}

func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// MustQuery is Query for tests and examples with known-good SQL; it panics
// on error.
func (e *Engine) MustQuery(ctx context.Context, sql string) *cast.Batch {
	b, _, err := e.Query(ctx, sql)
	if err != nil {
		panic(fmt.Sprintf("MustQuery(%q): %v", sql, err))
	}
	return b
}
