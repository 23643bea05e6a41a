package relational

import (
	"context"
	"fmt"

	"polystorepp/internal/cast"
)

// Engine executes SQL against one store. It is the "native data-processing
// engine" the polystore adapters talk to.
type Engine struct {
	store *Store
}

// NewEngine returns an engine over the store.
func NewEngine(store *Store) *Engine { return &Engine{store: store} }

// Store returns the underlying store.
func (e *Engine) Store() *Store { return e.store }

// Query parses sql, lowers it (SelectStmt.Steps) and runs it, one kernel per
// step over the whole output of the step before, at automatic fan-out — the
// way the relational adapter runs each IR node. Joins are left-deep hash joins
// in clause order, and the scan seeks when the table has an index the WHERE
// clause can use. It returns the result and one OpStats per step, in step
// order: a scan's RowsIn is the rows it read, a join's its build rows plus
// its probe rows.
func (e *Engine) Query(ctx context.Context, sql string) (*cast.Batch, []OpStats, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	var buf [8]Step
	steps := stmt.Steps(buf[:0])
	stats := make([]OpStats, len(steps))
	var out *cast.Batch // the output of the steps run so far
	for i, st := range steps {
		stat, in := &stats[i], out
		var t *Table
		var schema cast.Schema
		switch st.Kind {
		case StepScan:
			if t, err = e.store.Table(st.Table); err == nil {
				out, stat.Kind, err = Scan(ctx, t, st.Pred)
			}
		case StepJoin:
			if t, err = e.store.Table(st.Table); err == nil {
				right := t.Snapshot()
				stat.RowsIn = int64(right.Rows())
				out, stat.Kind, err = HashJoin(ctx, in, right, st.LeftCol, st.RightCol, 0)
			}
		case StepFilter:
			stat.Kind = "Filter" + st.Pred.String()
			out, err = Filter(ctx, in, st.Pred, 0)
		case StepGroupBy:
			stat.Kind = "GroupBy"
			if schema, err = GroupBySchema(in.Schema(), st.GroupCols, st.Aggs); err == nil {
				out, err = GroupBy(ctx, in, st.GroupCols, st.Aggs, schema, 0)
			}
		case StepProject:
			stat.Kind = "Project"
			if schema, err = ProjectSchema(in.Schema(), st.Items); err == nil {
				out, err = Project(ctx, in, st.Items, schema, 0)
			}
		case StepSort:
			stat.Kind = "Sort"
			out, err = Sort(ctx, in, st.OrderBy, st.N)
		case StepLimit:
			stat.Kind = fmt.Sprintf("Limit(%d)", st.N)
			out, err = Limit(ctx, in, st.N)
		}
		if err != nil {
			return nil, nil, err
		}
		if in == nil {
			in = out // the scan read what it returns
		}
		stat.RowsIn += int64(in.Rows())
		stat.RowsOut = int64(out.Rows())
	}
	return out, stats, nil
}
