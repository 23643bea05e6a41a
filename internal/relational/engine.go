package relational

import (
	"context"

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
// per-operator stats of the executed plan.
func (e *Engine) Query(ctx context.Context, sql string) (*cast.Batch, []OpStats, error) {
	plan, err := e.Plan(sql)
	if err != nil {
		return nil, nil, err
	}
	out, err := Run(ctx, plan)
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

// PlanStmt maps the statement's steps (SelectStmt.Steps) to physical
// operators, one for one: joins are left-deep hash joins in clause order, and
// a scan seeks when the table has an index its step's predicate can use.
func (e *Engine) PlanStmt(stmt *SelectStmt) (Operator, error) {
	var op Operator
	var buf [8]Step
	for _, st := range stmt.Steps(buf[:0]) {
		var err error
		switch st.Kind {
		case StepScan:
			t, err := e.store.Table(st.Table)
			if err != nil {
				return nil, err
			}
			if col, lo, hi, ok := t.SeekRange(st.Pred); ok {
				op = NewIndexScan(t, col, lo, hi)
			} else {
				op = NewSeqScan(t)
			}
		case StepJoin:
			right, err := e.store.Table(st.Table)
			if err != nil {
				return nil, err
			}
			if op, err = NewHashJoin(op, NewSeqScan(right), st.LeftCol, st.RightCol); err != nil {
				return nil, err
			}
		case StepFilter:
			op = NewFilter(op, st.Pred)
		case StepGroupBy:
			op, err = NewGroupBy(op, st.GroupCols, st.Aggs)
		case StepProject:
			op, err = NewProject(op, st.Items)
		case StepSort:
			op = NewSort(op, SortKeys(st.OrderBy)...)
		case StepLimit:
			// A limit with no materializing ancestor (no sort/group-by) can stop
			// pulling early; keep the subtree streaming so the bulk fast path
			// does not turn LIMIT-N into a whole-table scan.
			markStreaming(op)
			op = NewLimit(op, st.N)
		}
		if err != nil {
			return nil, err
		}
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
