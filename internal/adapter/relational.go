package adapter

import (
	"context"
	"errors"
	"fmt"

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/partition"
	"polystorepp/internal/relational"
)

// Relational adapts a relational engine instance. Its rule table maps the
// relational subset of the IR taxonomy onto native Volcano operators.
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
// from JSON, so numbers are coerced to the column types (float64 -> int64
// for integer and timestamp columns when the value is integral).
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

// Execute implements Adapter.
func (a *Relational) Execute(ctx context.Context, n *ir.Node, inputs []Value) (Value, ExecInfo, error) {
	info := ExecInfo{RuleNodes: 1}
	switch n.Kind {
	case ir.OpScan:
		table := n.StringAttr("table")
		t, err := a.engine.Store().Table(table)
		if err != nil {
			return Value{}, info, err
		}
		out := t.Snapshot()
		info.RowsOut = int64(out.Rows())
		info.Native = "SeqScan(" + table + ")"
		// Scans stream from storage; charge a project-shaped pass.
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(out.Rows()), Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpIndexScan:
		table := n.StringAttr("table")
		t, err := a.engine.Store().Table(table)
		if err != nil {
			return Value{}, info, err
		}
		col := n.StringAttr("col")
		info.Native = fmt.Sprintf("IndexScan(%s.%s)", table, col)
		out, err := relational.Run(ctx, relational.NewIndexScan(t, col, n.IntAttr("lo"), n.IntAttr("hi")))
		if errors.Is(err, relational.ErrNoIndex) {
			// L2 chose an index the engine doesn't have: hand on the heap
			// snapshot exactly as OpScan does (the residual filter still
			// applies), and say so.
			out, err = t.Snapshot(), nil
			info.Native = fmt.Sprintf("SeqScan(%s) [no index on %s]", table, col)
			info.NoIndex = true
		}
		if err != nil {
			return Value{}, info, err
		}
		info.RowsOut = int64(out.Rows())
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(out.Rows()), Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpFilter:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		pred, ok := n.Attr("pred").(relational.Expr)
		if !ok {
			return Value{}, info, fmt.Errorf("%w: filter without pred", ErrBadNode)
		}
		op := relational.NewFilter(&batchSource{b: in}, pred)
		op.Parts = partition.CapParts(ctx, int(n.IntAttr("parts")))
		out, err := relational.Run(ctx, op)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Parts = partition.Effective(in.Rows(), op.Parts)
		info.Native = "Filter" + pred.String()
		info.Kernels = []KernelCall{{Class: hw.KFilter, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpProject:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		items, ok := n.Attr("items").([]relational.ProjItem)
		if !ok {
			return Value{}, info, fmt.Errorf("%w: project without items", ErrBadNode)
		}
		op, err := relational.NewProject(&batchSource{b: in}, items)
		if err != nil {
			return Value{}, info, err
		}
		op.Parts = partition.CapParts(ctx, int(n.IntAttr("parts")))
		out, err := relational.Run(ctx, op)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Parts = partition.Effective(in.Rows(), op.Parts)
		info.Native = "Project"
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

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
		// Accept either column orientation, as the SQL planner does.
		if !right.Schema().Has(base(rc)) && right.Schema().Has(base(lc)) {
			lc, rc = rc, lc
		}
		var (
			out *cast.Batch
		)
		if n.Kind == ir.OpHashJoin {
			op, err := relational.NewHashJoin(&batchSource{b: left}, &batchSource{b: right}, lc, rc)
			if err != nil {
				return Value{}, info, err
			}
			op.Parts = partition.CapParts(ctx, int(n.IntAttr("parts")))
			out, err = relational.Run(ctx, op)
			if err != nil {
				return Value{}, info, err
			}
			// The probe side drives the fan-out (build uses the same knob).
			info.Parts = partition.Effective(left.Rows(), op.Parts)
			info.Kernels = []KernelCall{
				{Class: hw.KHashBuild, Work: hw.Work{Items: int64(right.Rows()), Bytes: right.ByteSize()}},
				{Class: hw.KHashProbe, Work: hw.Work{Items: int64(left.Rows()), Bytes: left.ByteSize()}, OutBytes: out.ByteSize()},
			}
			info.Native = fmt.Sprintf("HashJoin(%s=%s)", lc, rc)
		} else {
			op, err := relational.NewMergeJoin(&batchSource{b: left}, &batchSource{b: right}, lc, rc)
			if err != nil {
				return Value{}, info, err
			}
			out, err = relational.Run(ctx, op)
			if err != nil {
				return Value{}, info, err
			}
			info.Kernels = []KernelCall{
				{Class: hw.KSort, Work: hw.Work{Items: int64(left.Rows()), Bytes: left.ByteSize()}},
				{Class: hw.KSort, Work: hw.Work{Items: int64(right.Rows()), Bytes: right.ByteSize()}},
				{Class: hw.KFilter, Work: hw.Work{Items: int64(left.Rows() + right.Rows())}, OutBytes: out.ByteSize()},
			}
			info.Native = fmt.Sprintf("MergeJoin(%s=%s)", lc, rc)
		}
		info.RowsIn = int64(left.Rows() + right.Rows())
		info.RowsOut = int64(out.Rows())
		return Value{Batch: out}, info, nil

	case ir.OpSort:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		order, ok := n.Attr("order_by").([]relational.OrderItem)
		if !ok || len(order) == 0 {
			return Value{}, info, fmt.Errorf("%w: sort without order_by", ErrBadNode)
		}
		keys := make([]cast.SortKey, 0, len(order))
		for _, o := range order {
			keys = append(keys, cast.SortKey{Col: base(o.Col), Desc: o.Desc})
		}
		out, err := in.SortBy(keys...)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Native = "Sort"
		info.Kernels = []KernelCall{{Class: hw.KSort, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

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
		op, err := relational.NewGroupBy(&batchSource{b: in}, groupCols, aggs)
		if err != nil {
			return Value{}, info, err
		}
		op.Parts = partition.CapParts(ctx, int(n.IntAttr("parts")))
		out, err := relational.Run(ctx, op)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Parts = partition.Effective(in.Rows(), op.Parts)
		info.Native = "GroupBy"
		info.Kernels = []KernelCall{{Class: hw.KHashBuild, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpLimit:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		nLimit := int(n.IntAttr("n"))
		if nLimit > in.Rows() {
			nLimit = in.Rows()
		}
		out, err := in.ViewRange(0, nLimit)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Native = fmt.Sprintf("Limit(%d)", nLimit)
		return Value{Batch: out}, info, nil

	case ir.OpSQL:
		sql := n.StringAttr("sql")
		out, stats, err := a.engine.Query(ctx, sql)
		if err != nil {
			return Value{}, info, err
		}
		var rowsIn int64
		for _, st := range stats {
			rowsIn += st.RowsIn
		}
		info.RowsIn = rowsIn
		info.RowsOut = int64(out.Rows())
		info.Native = sql
		info.RuleNodes = int64(len(stats))
		info.Kernels = []KernelCall{{Class: hw.KFilter, Work: hw.Work{Items: rowsIn, Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	default:
		return Value{}, info, fmt.Errorf("%w: %s on relational engine", ErrUnsupported, n.Kind)
	}
}

// ExecuteStream implements StreamExecutor: terminal relational operators
// emit result batches as they are produced. Scans emit StreamChunkRows
// views of the snapshot, filter/project/hash-join run their Volcano
// operators over a chunked source so every per-chunk output batch goes out
// the moment it exists, and SQL streams the root operator's batches. Kinds
// that materialize regardless (sort, group-by, merge join, limit, index
// scan) execute buffered and emit the result chunked — same wire shape,
// same Value/ExecInfo as Execute in every case.
func (a *Relational) ExecuteStream(ctx context.Context, n *ir.Node, inputs []Value, emit BatchSink) (Value, ExecInfo, error) {
	info := ExecInfo{RuleNodes: 1}
	switch n.Kind {
	case ir.OpScan:
		table := n.StringAttr("table")
		t, err := a.engine.Store().Table(table)
		if err != nil {
			return Value{}, info, err
		}
		out := t.Snapshot()
		if err := EmitChunked(ctx, emit, out); err != nil {
			return Value{}, info, err
		}
		info.RowsOut = int64(out.Rows())
		info.Native = "SeqScan(" + table + ")"
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(out.Rows()), Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpFilter:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		pred, ok := n.Attr("pred").(relational.Expr)
		if !ok {
			return Value{}, info, fmt.Errorf("%w: filter without pred", ErrBadNode)
		}
		op := relational.NewFilter(&chunkedSource{b: in}, pred)
		out, err := relational.RunEmit(ctx, op, emit)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Native = "Filter" + pred.String()
		info.Kernels = []KernelCall{{Class: hw.KFilter, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpProject:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		items, ok := n.Attr("items").([]relational.ProjItem)
		if !ok {
			return Value{}, info, fmt.Errorf("%w: project without items", ErrBadNode)
		}
		op, err := relational.NewProject(&chunkedSource{b: in}, items)
		if err != nil {
			return Value{}, info, err
		}
		out, err := relational.RunEmit(ctx, op, emit)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Native = "Project"
		info.Kernels = []KernelCall{{Class: hw.KProject, Work: hw.Work{Items: int64(in.Rows()), Bytes: in.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	case ir.OpHashJoin:
		left, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		right, err := tabular(inputs, 1)
		if err != nil {
			return Value{}, info, err
		}
		lc, rc := n.StringAttr("left_col"), n.StringAttr("right_col")
		if !right.Schema().Has(base(rc)) && right.Schema().Has(base(lc)) {
			lc, rc = rc, lc
		}
		// The build side drains in full (and still fans out under the parts
		// knob); only probe delivery streams per chunk.
		op, err := relational.NewHashJoin(&chunkedSource{b: left}, &batchSource{b: right}, lc, rc)
		if err != nil {
			return Value{}, info, err
		}
		op.Parts = partition.CapParts(ctx, int(n.IntAttr("parts")))
		out, err := relational.RunEmit(ctx, op, emit)
		if err != nil {
			return Value{}, info, err
		}
		// Probe delivery streams chunk-at-a-time; the fan-out reported here
		// is the build side's.
		info.Parts = partition.Effective(right.Rows(), op.Parts)
		info.Kernels = []KernelCall{
			{Class: hw.KHashBuild, Work: hw.Work{Items: int64(right.Rows()), Bytes: right.ByteSize()}},
			{Class: hw.KHashProbe, Work: hw.Work{Items: int64(left.Rows()), Bytes: left.ByteSize()}, OutBytes: out.ByteSize()},
		}
		info.Native = fmt.Sprintf("HashJoin(%s=%s)", lc, rc)
		info.RowsIn = int64(left.Rows() + right.Rows())
		info.RowsOut = int64(out.Rows())
		return Value{Batch: out}, info, nil

	case ir.OpSQL:
		sql := n.StringAttr("sql")
		// BatchSink's underlying type matches QueryStream's parameter, and
		// passing emit directly preserves nilness (a nil sink means
		// buffered execution sharing this code path).
		out, stats, err := a.engine.QueryStream(ctx, sql, emit)
		if err != nil {
			return Value{}, info, err
		}
		var rowsIn int64
		for _, st := range stats {
			rowsIn += st.RowsIn
		}
		info.RowsIn = rowsIn
		info.RowsOut = int64(out.Rows())
		info.Native = sql
		info.RuleNodes = int64(len(stats))
		info.Kernels = []KernelCall{{Class: hw.KFilter, Work: hw.Work{Items: rowsIn, Bytes: out.ByteSize()}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	default:
		out, info, err := a.Execute(ctx, n, inputs)
		if err != nil {
			return out, info, err
		}
		if err := EmitChunked(ctx, emit, out.Batch); err != nil {
			return Value{}, info, err
		}
		return out, info, nil
	}
}

// tabular extracts the i-th input as a batch.
func tabular(inputs []Value, i int) (*cast.Batch, error) {
	if i >= len(inputs) || inputs[i].Batch == nil {
		return nil, fmt.Errorf("%w: input %d is not tabular", ErrBadInput, i)
	}
	return inputs[i].Batch, nil
}

// base strips a table qualifier from a column name.
func base(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
