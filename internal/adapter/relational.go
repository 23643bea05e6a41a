package adapter

import (
	"context"
	"fmt"

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// Relational adapts a relational engine instance. Its rule table maps the
// relational subset of the IR taxonomy onto the engine's kernels
// (relational.Scan, Filter, Project, HashJoin, MergeJoin, GroupBy, Sort,
// Limit) — the same functions relational.Engine.Query runs a statement with,
// each over whole input batches.
type Relational struct {
	name   string
	engine *relational.Engine
}

// NewRelational returns an adapter over the engine.
func NewRelational(name string, engine *relational.Engine) *Relational {
	return &Relational{name: name, engine: engine}
}

// Engine implements Adapter.
func (a *Relational) Engine() string { return a.name }

// DataVersion implements DataVersioner.
func (a *Relational) DataVersion() uint64 { return a.engine.Store().Version() }

// ScopedVersion implements ScopedVersioner: the summed mutation counts of
// exactly the named tables (missing tables read as 0 until created).
func (a *Relational) ScopedVersion(tables []string) uint64 {
	return a.engine.Store().VersionOf(tables)
}

// Ingest implements Ingestor: append one row to a table. Row values arrive
// from JSON, an integer as int64 and any other number as float64; a float64
// is coerced to int64 for integer and timestamp columns when it is integral.
func (a *Relational) Ingest(_ context.Context, w Ingest) error {
	if w.Table == "" {
		return fmt.Errorf("%w: relational ingest needs a table", ErrBadInput)
	}
	t, err := a.engine.Store().Table(w.Table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	if len(w.Row) != schema.Len() {
		return fmt.Errorf("%w: %d values for %d columns of %q", ErrBadInput, len(w.Row), schema.Len(), w.Table)
	}
	vals := make([]any, len(w.Row))
	for i, v := range w.Row {
		switch schema.Col(i).Type {
		case cast.Int64, cast.Timestamp:
			if f, ok := v.(float64); ok && f == float64(int64(f)) {
				v = int64(f)
			}
		}
		vals[i] = v
	}
	return t.Insert(vals...)
}

// Execute implements Adapter: the rule table from IR op kinds to relational
// kernels.
func (a *Relational) Execute(ctx context.Context, n *ir.Node, inputs []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	var out *cast.Batch
	switch n.Kind {
	case ir.OpScan, ir.OpIndexScan:
		t, err := a.engine.Store().Table(n.StringAttr("table"))
		if err != nil {
			return Value{}, info, err
		}
		// An IndexScan carries the predicate its consumer applies (compiler L2)
		// and the table decides whether an index serves it; a plain Scan reads
		// the heap.
		var pred relational.Expr
		if n.Kind == ir.OpIndexScan {
			pred, _ = n.Attr("pred").(relational.Expr)
		}
		if out, info.Path, err = relational.Scan(ctx, t, pred); err != nil {
			return Value{}, info, err
		}
		info.RowsOut = int64(out.Rows())
		// Scans stream from storage; charge a project-shaped pass.
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(out.Rows()), Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}

	case ir.OpFilter, ir.OpProject:
		var err error
		if out, err = execTabular(ctx, n, inputs, &info); err != nil {
			return Value{}, info, err
		}

	case ir.OpHashJoin, ir.OpMergeJoin:
		left, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		right, err := tabular(inputs, 1)
		if err != nil {
			return Value{}, info, err
		}
		lc, rc := n.StringAttr("left_col"), n.StringAttr("right_col")
		if n.Kind == ir.OpHashJoin {
			if out, info.Path, err = relational.HashJoin(ctx, left, right, lc, rc); err != nil {
				return Value{}, info, err
			}
			info.Kernels = []KernelCall{
				{Class: hw.KHashBuild, Work: hw.Work{Items: int64(right.Rows()), Bytes: right.ByteSize()}},
				{Class: hw.KHashProbe, Work: hw.Work{Items: int64(left.Rows()), Bytes: left.ByteSize()}, OutBytes: out.ByteSize()},
			}
		} else {
			if out, info.Path, err = relational.MergeJoin(ctx, left, right, lc, rc); err != nil {
				return Value{}, info, err
			}
			info.Kernels = []KernelCall{
				{Class: hw.KSort, Work: hw.Work{Items: int64(left.Rows()), Bytes: left.ByteSize()}},
				{Class: hw.KSort, Work: hw.Work{Items: int64(right.Rows()), Bytes: right.ByteSize()}},
				{Class: hw.KFilter, Work: hw.Work{Items: int64(left.Rows() + right.Rows())}, OutBytes: out.ByteSize()},
			}
		}
		info.RowsIn = int64(left.Rows() + right.Rows())
		info.RowsOut = int64(out.Rows())

	case ir.OpSort:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		order, ok := n.Attr("order_by").([]relational.OrderItem)
		if !ok || len(order) == 0 {
			return Value{}, info, fmt.Errorf("%w: sort without order_by", ErrBadNode)
		}
		// A sort under a LIMIT carries its n and keeps that many rows; one
		// without sorts all of them.
		limit := -1
		if n.Attr("n") != nil {
			limit = int(n.IntAttr("n"))
		}
		if out, err = relational.Sort(ctx, in, order, limit); err != nil {
			return Value{}, info, err
		}
		info.unary(hw.KSort, in, out)

	case ir.OpGroupBy:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		groupCols, _ := n.Attr("group_cols").([]string)
		aggs, ok := n.Attr("aggs").([]relational.AggSpec)
		if !ok {
			return Value{}, info, fmt.Errorf("%w: group-by without aggs", ErrBadNode)
		}
		schema, err := relational.GroupBySchema(in.Schema(), groupCols, aggs)
		if err != nil {
			return Value{}, info, err
		}
		if out, err = relational.GroupBy(ctx, in, groupCols, aggs, schema); err != nil {
			return Value{}, info, err
		}
		info.unary(hw.KHashBuild, in, out)

	case ir.OpLimit:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		if out, err = relational.Limit(ctx, in, int(n.IntAttr("n"))); err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())

	default:
		return Value{}, info, fmt.Errorf("%w: %s on relational engine", ErrUnsupported, n.Kind)
	}
	return Value{Batch: out}, info, nil
}

// unary fills the report fields every one-input kind derives the same way:
// cardinalities, and one kernel call of class over the input.
func (info *ExecInfo) unary(class hw.KernelClass, in, out *cast.Batch) {
	info.RowsIn = int64(in.Rows())
	info.RowsOut = int64(out.Rows())
	info.Kernels = []KernelCall{{Class: class, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
}

// tabular extracts the i-th input as a batch.
func tabular(inputs []Value, i int) (*cast.Batch, error) {
	if i >= len(inputs) || inputs[i].Batch == nil {
		return nil, fmt.Errorf("%w: input %d is not tabular", ErrBadInput, i)
	}
	return inputs[i].Batch, nil
}
