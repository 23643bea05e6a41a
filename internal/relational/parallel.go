package relational

import (
	"context"
	"fmt"

	"polystorepp/internal/cast"
	"polystorepp/internal/partition"
)

// This file implements partition-parallel execution of the scan-shaped
// kernels (filter, project, group-by): the input is split into fixed
// contiguous row ranges, one task per partition fans out over the shared
// bounded scan-worker pool (internal/partition), and the per-partition
// results — selections for a filter — are merged in partition order.
// The sequential path is the same code at one partition. Because partitions
// are contiguous row ranges and every merge preserves partition order, any
// fan-out produces identical results: filters and projections are
// row-order-preserving by construction, and group-by partial aggregates
// combine in ascending partition order, so the combine is deterministic
// regardless of goroutine schedule. Within a partition group-by folds a
// vector of rows at a time — group ids first, then one typed loop per
// aggregate (exec.go) — and each group's rows still in row order, so a
// partial is what a row loop over the range would hold. The combine is exact
// (hence partition-invariant) wherever its additions are: counts, integer
// SUMs (128-bit, exact by construction) and MIN/MAX always; float SUMs and
// AVGs — float64 folds, of integer columns too — when their accumulations
// round nowhere.

// filterRange evaluates pred over rows of b and returns the kept ones. It
// stops at the first failing row, with that row's error.
func filterRange(b *cast.Batch, pred Expr, rows selection) (selection, error) {
	kept, _, err := pred.evalSel(b, rows)
	if t, ok := err.(notBool); ok {
		err = fmt.Errorf("%w: predicate returned %s", ErrExpr, string(t))
	}
	return kept, err
}

// parFilter filters in across partitions: each computes the selection of its
// row range — in's own row numbers, so no partition needs a view — and the
// selections are handed on, in partition order, as one.
func parFilter(ctx context.Context, in *cast.Batch, pred Expr, parts int) (*cast.Batch, error) {
	ranges := partition.Split(in.Rows(), partition.Effective(in.Rows(), parts))
	sels := make([]selection, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) (err error) {
		sels[i], err = filterRange(in, pred, runOf(ranges[i].Lo, ranges[i].Hi))
		return err
	}); err != nil {
		return nil, err
	}
	return takeSels(in, sels)
}

// takeSels returns the rows of src the per-partition selections name, in
// partition order. Runs that meet end to end — a range predicate over
// clustered rows, a join whose every row matches once — are one zero-copy
// view, or src itself when they cover all of it; anything else is one
// selection vector handed to cast.Batch.Take, which gathers nothing until a
// column is read.
func takeSels(src *cast.Batch, sels []selection) (*cast.Batch, error) {
	var all selection // the one piece, while there is only one
	pieces, total := 0, 0
	for _, sel := range sels {
		if sel.len() == 0 {
			continue
		}
		total += sel.len()
		if pieces == 1 && all.rows == nil && sel.rows == nil && all.hi == sel.lo {
			all.hi = sel.hi
			continue
		}
		all = sel
		pieces++
	}
	if pieces > 1 {
		all = selection{rows: make([]int32, 0, total)}
		for _, sel := range sels {
			all.rows = sel.list(all.rows)
		}
	}
	if all.rows == nil {
		if all.hi-all.lo == src.Rows() {
			return src, nil
		}
		return src.ViewRange(all.lo, all.hi)
	}
	return src.Take(all.rows), nil
}

// projectRange evaluates items over every row of b into a batch under schema.
// A bare column reference shares b's column storage; computed items get
// fresh columns.
func projectRange(b *cast.Batch, items []ProjItem, schema cast.Schema) (*cast.Batch, error) {
	n := b.Rows()
	if n == 0 {
		return cast.NewBatch(schema, 0), nil
	}
	// A row-order loop fails on the lowest failing row, and there on the
	// leftmost failing item: each item is evaluated only up to the earliest
	// failure so far, so a later item's error wins only on a strictly
	// earlier row.
	var firstErr error
	vecs, upto := make([]vec, len(items)), n
	for i, it := range items {
		v, ok, err := it.E.evalVec(b, runOf(0, upto))
		if err != nil {
			firstErr, upto = err, ok
		}
		vecs[i] = v
	}
	if firstErr != nil {
		return nil, firstErr
	}
	cols := make([]any, len(items))
	for i, v := range vecs {
		// An int64 value under a float64 column widens; an identity-selected
		// column is shared as it stands.
		if v.t == cast.Int64 && schema.Col(i).Type == cast.Float64 {
			v = convert(v, n)
		}
		cols[i] = v.column(n)
	}
	return cast.BatchOf(schema, cols...)
}

// parProject projects in across partitions, concatenating in partition
// order. A projection that only picks columns or constants has nothing to
// fan out: it shares the input's column storage whole.
func parProject(ctx context.Context, in *cast.Batch, items []ProjItem, schema cast.Schema, parts int) (*cast.Batch, error) {
	computes := false
	for _, it := range items {
		switch it.E.(type) {
		case ColRef, Const:
		default:
			computes = true
		}
	}
	ranges := partition.Split(in.Rows(), partition.Effective(in.Rows(), parts))
	if len(ranges) == 1 || !computes {
		return projectRange(in, items, schema)
	}
	outs := make([]*cast.Batch, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) error {
		view, err := in.ViewRange(ranges[i].Lo, ranges[i].Hi)
		if err != nil {
			return err
		}
		outs[i], err = projectRange(view, items, schema)
		return err
	}); err != nil {
		return nil, err
	}
	merged := cast.NewBatch(schema, in.Rows())
	for _, o := range outs {
		if err := merged.AppendBatch(o); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
