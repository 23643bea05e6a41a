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
// step: joins are left-deep hash joins in clause order, and the scan seeks
// when the table has an index the WHERE clause can use. It returns the result
// and one OpStats per step, in step order.
//
// Everything a step needs besides the rows of the step before it — tables,
// schemas, the build side of each join — is resolved first, so a statement
// that cannot run fails before any row is read. The steps after the scan then
// run as a chain: over the whole scan at automatic fan-out, or, for a LIMIT
// with no sort or group-by beneath it, chunk by chunk until enough rows are
// out (Chunked), so LIMIT n reads O(n) rows of the table, not all of it.
func (e *Engine) Query(ctx context.Context, sql string) (*cast.Batch, []OpStats, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	var buf [8]Step
	steps := stmt.Steps(buf[:0])
	stats := make([]OpStats, len(steps))
	chain := make([]Kernel, 0, len(steps))
	var in *cast.Batch     // the scan's output
	var schema cast.Schema // of the chain's output so far
	whole := false         // some step needs all of its input before it answers
	limit := -1            // the LIMIT, when the chain can stop early at it
	for i, st := range steps {
		stat, k := &stats[i], Kernel(nil)
		switch st.Kind {
		case StepScan:
			t, err := e.store.Table(st.Table)
			if err != nil {
				return nil, nil, err
			}
			if in, stat.Kind, err = Scan(ctx, t, st.Pred); err != nil {
				return nil, nil, err
			}
			schema = in.Schema()
			// The scan's place in the chain counts the rows read of it.
			k = func(_ context.Context, b *cast.Batch, _ int) (*cast.Batch, error) { return b, nil }
		case StepJoin:
			t, err := e.store.Table(st.Table)
			if err != nil {
				return nil, nil, err
			}
			right := t.Snapshot()
			hb, err := BuildHash(ctx, schema, right, st.LeftCol, st.RightCol)
			if err != nil {
				return nil, nil, err
			}
			k, schema, stat.Kind, stat.RowsIn = hb.Probe, hb.Schema(), hb.Kind, int64(right.Rows())
		case StepFilter:
			stat.Kind = "Filter" + st.Pred.String()
			k = func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
				return Filter(ctx, b, st.Pred, parts)
			}
		case StepGroupBy:
			grouped, err := GroupBySchema(schema, st.GroupCols, st.Aggs)
			if err != nil {
				return nil, nil, err
			}
			schema, stat.Kind, whole = grouped, "GroupBy", true
			k = func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
				return GroupBy(ctx, b, st.GroupCols, st.Aggs, grouped, parts)
			}
		case StepProject:
			projected, err := ProjectSchema(schema, st.Items)
			if err != nil {
				return nil, nil, err
			}
			schema, stat.Kind = projected, "Project"
			k = func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
				return Project(ctx, b, st.Items, projected, parts)
			}
		case StepSort:
			stat.Kind, whole = "Sort", true
			k = func(ctx context.Context, b *cast.Batch, _ int) (*cast.Batch, error) {
				return Sort(ctx, b, st.OrderBy, st.N)
			}
		case StepLimit:
			stat.Kind = fmt.Sprintf("Limit(%d)", st.N)
			if !whole {
				limit = st.N
				continue
			}
			k = func(ctx context.Context, b *cast.Batch, _ int) (*cast.Batch, error) {
				return Limit(ctx, b, st.N)
			}
		}
		chain = append(chain, func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
			out, err := k(ctx, b, parts)
			if err == nil {
				stat.RowsIn += int64(b.Rows())
				stat.RowsOut += int64(out.Rows())
			}
			return out, err
		})
	}
	out := in
	if limit >= 0 {
		if out, err = Chunked(ctx, in, ChunkRows, schema, chain, limit); err != nil {
			return nil, nil, err
		}
		last := &stats[len(stats)-1]
		last.RowsIn, last.RowsOut = int64(out.Rows()), int64(out.Rows())
		return out, stats, nil
	}
	for _, k := range chain {
		if out, err = k(ctx, out, 0); err != nil {
			return nil, nil, err
		}
	}
	return out, stats, nil
}
