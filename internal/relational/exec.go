package relational

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"polystorepp/internal/cast"
	"polystorepp/internal/partition"
)

// batchSize is the vector width of the Volcano operators.
const batchSize = 1024

// OpStats is the per-operator execution record the middleware's runtime
// optimizer consumes (§IV-D-d): adapters convert these to hardware kernel
// costs.
type OpStats struct {
	Kind    string
	RowsIn  int64
	RowsOut int64
	Bytes   int64
}

// Operator is a vectorized Volcano iterator. Next returns (nil, nil) when
// the stream is exhausted.
type Operator interface {
	Schema() cast.Schema
	Open(ctx context.Context) error
	Next(ctx context.Context) (*cast.Batch, error)
	Close() error
	Stats() OpStats
	Children() []Operator
}

// Run opens op, drains it into one batch, and closes it.
func Run(ctx context.Context, op Operator) (*cast.Batch, error) {
	return RunEmit(ctx, op, nil)
}

// RunEmit is Run with incremental delivery: every non-empty batch the
// operator yields is handed to emit, in order, before the next one is
// pulled, and the returned batch is the concatenation of exactly the
// emitted batches — the invariant streaming result paths are pinned
// against. A nil emit degrades to the plain drain. ctx is checked per
// batch so canceled streams stop pulling promptly; a sink error aborts the
// drain and surfaces as the operator error.
func RunEmit(ctx context.Context, op Operator, emit func(*cast.Batch) error) (*cast.Batch, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer func() { _ = op.Close() }()
	return drain(ctx, op, emit)
}

// drain pulls op dry and returns its output as one batch, by cast.Concat's
// rules: a single batch — every bulk producer yields one — is handed back by
// reference, chunks that tile one snapshot become a view of it, and only
// what is left is copied, once, at the final size.
func drain(ctx context.Context, op Operator, emit func(*cast.Batch) error) (*cast.Batch, error) {
	var parts []*cast.Batch
	for {
		// Checked per batch so a materializing consumer (join build, sort)
		// aborts promptly when the request deadline hits mid-drain.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Rows() == 0 {
			continue
		}
		if emit != nil {
			if err := emit(b); err != nil {
				return nil, err
			}
		}
		parts = append(parts, b)
	}
	return cast.Concat(op.Schema(), parts)
}

// WalkStats collects stats of the whole operator tree, parents first.
func WalkStats(op Operator) []OpStats {
	out := []OpStats{op.Stats()}
	for _, c := range op.Children() {
		out = append(out, WalkStats(c)...)
	}
	return out
}

// --- SeqScan ---

// SeqScan emits every row of a table in heap order (§III-A2's sequential
// scan access path).
type SeqScan struct {
	Table *Table

	snap *cast.Batch
	pos  int
	out  int64
}

// NewSeqScan returns a sequential scan over t.
func NewSeqScan(t *Table) *SeqScan { return &SeqScan{Table: t} }

// Schema implements Operator.
func (s *SeqScan) Schema() cast.Schema { return s.Table.Schema() }

// Open implements Operator.
func (s *SeqScan) Open(context.Context) error {
	s.snap = s.Table.Snapshot()
	s.pos = 0
	s.out = 0
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next(context.Context) (*cast.Batch, error) {
	if s.pos >= s.snap.Rows() {
		return nil, nil
	}
	hi := s.pos + batchSize
	if hi > s.snap.Rows() {
		hi = s.snap.Rows()
	}
	b, err := s.snap.ViewRange(s.pos, hi)
	if err != nil {
		return nil, err
	}
	s.pos = hi
	s.out += int64(b.Rows())
	return b, nil
}

// Bulk implements BulkSource: the whole remaining snapshot in one zero-copy
// view, leaving the stream exhausted and stats as if streamed.
func (s *SeqScan) Bulk(context.Context) (*cast.Batch, error) {
	if s.pos >= s.snap.Rows() {
		return nil, nil
	}
	b, err := s.snap.ViewRange(s.pos, s.snap.Rows())
	if err != nil {
		return nil, err
	}
	s.pos = s.snap.Rows()
	s.out += int64(b.Rows())
	return b, nil
}

// Close implements Operator.
func (s *SeqScan) Close() error { return nil }

// Stats implements Operator.
func (s *SeqScan) Stats() OpStats {
	return OpStats{Kind: "SeqScan(" + s.Table.Name() + ")", RowsIn: s.out, RowsOut: s.out}
}

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// --- IndexScan ---

// IndexScan emits the rows whose indexed column falls within [Lo, Hi]
// (inclusive), using the table's B-tree (§III-A2's index-seek path).
type IndexScan struct {
	Table  *Table
	Col    string
	Lo, Hi int64

	snap *cast.Batch
	rows []int32
	pos  int
	out  int64
}

// NewIndexScan returns an index range scan.
func NewIndexScan(t *Table, col string, lo, hi int64) *IndexScan {
	return &IndexScan{Table: t, Col: col, Lo: lo, Hi: hi}
}

// Schema implements Operator.
func (s *IndexScan) Schema() cast.Schema { return s.Table.Schema() }

// Open implements Operator.
func (s *IndexScan) Open(context.Context) error {
	snap, rows, err := s.Table.SnapshotRange(s.Col, s.Lo, s.Hi)
	if err != nil {
		return err
	}
	s.snap, s.rows = snap, rows
	s.pos = 0
	s.out = 0
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next(context.Context) (*cast.Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	hi := s.pos + batchSize
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	b := s.snap.Take(s.rows[s.pos:hi])
	s.pos = hi
	s.out += int64(b.Rows())
	return b, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }

// Stats implements Operator.
func (s *IndexScan) Stats() OpStats {
	return OpStats{Kind: fmt.Sprintf("IndexScan(%s.%s)", s.Table.Name(), s.Col), RowsIn: s.out, RowsOut: s.out}
}

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

// --- Filter ---

// FilterOp keeps rows satisfying the predicate. When its child is a
// BulkSource the predicate fans out over fixed row-range partitions on the
// shared scan pool (parallel.go); results are identical to the streaming
// path.
type FilterOp struct {
	Child Operator
	Pred  Expr
	// Parts overrides the partition fan-out: 0 picks automatically from the
	// input size and pool width, 1 forces single-partition evaluation.
	Parts int
	// Stream disables the bulk fast path so a downstream LimitOp can stop
	// pulling early instead of paying a whole-input scan (the SQL planner
	// sets it under LIMIT-without-materializing-ancestor plans).
	Stream bool

	bulked  bool
	in, out int64
}

// NewFilter returns a filter over child.
func NewFilter(child Operator, pred Expr) *FilterOp { return &FilterOp{Child: child, Pred: pred} }

// Schema implements Operator.
func (f *FilterOp) Schema() cast.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *FilterOp) Open(ctx context.Context) error { return f.Child.Open(ctx) }

// nextInput pulls an operator's next input batch and the fan-out to run it
// at: the child's whole remaining output, at parts, the first time a
// BulkSource child may surrender it (stream off); the child's next batch, at
// one partition, otherwise. An empty bulk batch reads as the exhausted stream.
func nextInput(ctx context.Context, child Operator, stream bool, bulked *bool, parts int) (*cast.Batch, int, error) {
	if bs, ok := child.(BulkSource); ok && !stream && !*bulked {
		*bulked = true
		if b, err := bs.Bulk(ctx); err != nil || (b != nil && b.Rows() > 0) {
			return b, parts, err
		}
	}
	b, err := child.Next(ctx)
	return b, 1, err
}

// Next implements Operator.
func (f *FilterOp) Next(ctx context.Context) (*cast.Batch, error) {
	for {
		b, parts, err := nextInput(ctx, f.Child, f.Stream, &f.bulked, f.Parts)
		if err != nil || b == nil {
			return nil, err
		}
		f.in += int64(b.Rows())
		kept, err := parFilter(ctx, b, f.Pred, parts)
		if err != nil {
			return nil, err
		}
		if kept.Rows() == 0 {
			continue
		}
		f.out += int64(kept.Rows())
		return kept, nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Child.Close() }

// Stats implements Operator.
func (f *FilterOp) Stats() OpStats {
	return OpStats{Kind: "Filter" + f.Pred.String(), RowsIn: f.in, RowsOut: f.out}
}

// Children implements Operator.
func (f *FilterOp) Children() []Operator { return []Operator{f.Child} }

// --- Project ---

// ProjItem is one output column of a projection: an expression plus its
// output name.
type ProjItem struct {
	E    Expr
	Name string
}

// ProjectOp evaluates a list of expressions per row. When its child is a
// BulkSource the evaluation fans out over fixed row-range partitions on the
// shared scan pool (parallel.go); results are identical to the streaming
// path.
type ProjectOp struct {
	Child Operator
	Items []ProjItem
	// Parts overrides the partition fan-out (0 = auto, 1 = sequential).
	Parts int
	// Stream disables the bulk fast path; see FilterOp.Stream.
	Stream bool

	schema cast.Schema
	bulked bool
	in     int64
}

// NewProject returns a projection. The output schema is resolved from the
// child schema at construction.
func NewProject(child Operator, items []ProjItem) (*ProjectOp, error) {
	cols := make([]cast.Column, 0, len(items))
	for _, it := range items {
		t, err := it.E.ResultType(child.Schema())
		if err != nil {
			return nil, err
		}
		cols = append(cols, cast.Column{Name: it.Name, Type: t})
	}
	s, err := cast.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{Child: child, Items: items, schema: s}, nil
}

// Schema implements Operator.
func (p *ProjectOp) Schema() cast.Schema { return p.schema }

// Open implements Operator.
func (p *ProjectOp) Open(ctx context.Context) error { return p.Child.Open(ctx) }

// Next implements Operator.
func (p *ProjectOp) Next(ctx context.Context) (*cast.Batch, error) {
	b, parts, err := nextInput(ctx, p.Child, p.Stream, &p.bulked, p.Parts)
	if err != nil || b == nil {
		return nil, err
	}
	p.in += int64(b.Rows())
	return parProject(ctx, b, p.Items, p.schema, parts)
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.Child.Close() }

// Stats implements Operator.
func (p *ProjectOp) Stats() OpStats {
	return OpStats{Kind: "Project", RowsIn: p.in, RowsOut: p.in}
}

// Children implements Operator.
func (p *ProjectOp) Children() []Operator { return []Operator{p.Child} }

// --- HashJoin ---

// HashJoinOp equi-joins two inputs: builds a hash table on the right input,
// probes with the left. Output schema is left ++ right. Build and probe are
// partition-parallel on large inputs (join_parallel.go): the build fans out
// over contiguous row ranges into key-hash-sharded tables merged in
// partition order, and when the left child is a BulkSource the probe fans
// out one task per probe partition with an order-preserving merge — results
// are identical to the sequential streaming path.
type HashJoinOp struct {
	Left, Right       Operator
	LeftCol, RightCol string
	// Parts overrides the partition fan-out for both build and probe
	// (0 = auto from input size and pool width, 1 = sequential).
	Parts int
	// Stream disables the bulk probe fast path so a downstream LimitOp can
	// stop pulling early instead of paying a whole-input probe (the SQL
	// planner sets it under LIMIT-without-materializing-ancestor plans).
	// The build side is always drained in full regardless.
	Stream bool

	schema   cast.Schema
	built    bool
	bulked   bool
	li       int // probe key column, resolved by build
	table    *joinTable
	rightMat *cast.Batch
	in, out  int64
}

// orientJoin returns an ON clause's columns probe side first. The clause may
// be written in either order: the column the build (right) input has is its
// key.
func orientJoin(right cast.Schema, leftCol, rightCol string) (string, string) {
	if !right.Has(BaseName(rightCol)) && right.Has(BaseName(leftCol)) {
		return rightCol, leftCol
	}
	return leftCol, rightCol
}

// NewHashJoin returns an equi-join on left.LeftCol = right.RightCol; the two
// columns may be given in either order.
func NewHashJoin(left, right Operator, leftCol, rightCol string) (*HashJoinOp, error) {
	leftCol, rightCol = orientJoin(right.Schema(), leftCol, rightCol)
	s, err := left.Schema().Concat(right.Schema())
	if err != nil {
		return nil, err
	}
	return &HashJoinOp{Left: left, Right: right, LeftCol: leftCol, RightCol: rightCol, schema: s}, nil
}

// Schema implements Operator.
func (j *HashJoinOp) Schema() cast.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoinOp) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	return j.Right.Open(ctx)
}

func (j *HashJoinOp) build(ctx context.Context) error {
	var err error
	j.rightMat, err = bulkOrDrain(ctx, j.Right)
	if err != nil {
		return err
	}
	ci, err := j.Right.Schema().Index(BaseName(j.RightCol))
	if err != nil {
		return err
	}
	if j.li, err = j.Left.Schema().Index(BaseName(j.LeftCol)); err != nil {
		return err
	}
	j.table, err = buildJoinTable(ctx, j.rightMat, ci, j.Left.Schema().Col(j.li).Type, j.Parts)
	if err != nil {
		return err
	}
	j.built = true
	return nil
}

// Next implements Operator.
func (j *HashJoinOp) Next(ctx context.Context) (*cast.Batch, error) {
	if !j.built {
		if err := j.build(ctx); err != nil {
			return nil, err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lb, parts, err := nextInput(ctx, j.Left, j.Stream, &j.bulked, j.Parts)
		if err != nil || lb == nil {
			return nil, err
		}
		j.in += int64(lb.Rows())
		out, err := parProbe(ctx, lb, j.li, j.table, j.rightMat, j.schema, parts)
		if err != nil {
			return nil, err
		}
		if out.Rows() == 0 {
			continue
		}
		j.out += int64(out.Rows())
		return out, nil
	}
}

// Bulk implements BulkSource by draining the join's own output, so a parent
// partitioned operator — or the probe of a stacked join — can grab the full
// result and fan out over it. The stream is left exhausted and stats account
// as if the output had been streamed.
func (j *HashJoinOp) Bulk(ctx context.Context) (*cast.Batch, error) {
	return drain(ctx, j, nil)
}

// Close implements Operator.
func (j *HashJoinOp) Close() error {
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// Stats implements Operator.
func (j *HashJoinOp) Stats() OpStats {
	var buildRows int64
	if j.rightMat != nil {
		buildRows = int64(j.rightMat.Rows())
	}
	return OpStats{Kind: fmt.Sprintf("HashJoin(%s=%s)", j.LeftCol, j.RightCol), RowsIn: j.in + buildRows, RowsOut: j.out}
}

// Children implements Operator.
func (j *HashJoinOp) Children() []Operator { return []Operator{j.Left, j.Right} }

// --- MergeJoin ---

// MergeJoinOp sort-merge equi-joins two inputs on int64 key columns — the
// paper's §III worked example ("DB1 performs a sort-merge on Date"). Inputs
// are materialized and sorted; the merge then streams.
type MergeJoinOp struct {
	Left, Right       Operator
	LeftCol, RightCol string

	schema  cast.Schema
	result  *cast.Batch
	emitted bool
	in, out int64
	// SortRows records the row counts the two sort phases processed so the
	// middleware can offload them (FPGA bitonic sort in E4).
	SortRows [2]int64
}

// NewMergeJoin returns a sort-merge join on int64 columns, given in either
// order.
func NewMergeJoin(left, right Operator, leftCol, rightCol string) (*MergeJoinOp, error) {
	leftCol, rightCol = orientJoin(right.Schema(), leftCol, rightCol)
	s, err := left.Schema().Concat(right.Schema())
	if err != nil {
		return nil, err
	}
	return &MergeJoinOp{Left: left, Right: right, LeftCol: leftCol, RightCol: rightCol, schema: s}, nil
}

// Schema implements Operator.
func (j *MergeJoinOp) Schema() cast.Schema { return j.schema }

// Open implements Operator.
func (j *MergeJoinOp) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	return j.Right.Open(ctx)
}

// Next implements Operator.
func (j *MergeJoinOp) Next(ctx context.Context) (*cast.Batch, error) {
	if j.emitted {
		return nil, nil
	}
	lm, err := bulkOrDrain(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	rm, err := bulkOrDrain(ctx, j.Right)
	if err != nil {
		return nil, err
	}
	j.in = int64(lm.Rows() + rm.Rows())
	j.SortRows = [2]int64{int64(lm.Rows()), int64(rm.Rows())}
	ls, err := lm.SortBy(cast.SortKey{Col: BaseName(j.LeftCol)})
	if err != nil {
		return nil, err
	}
	rs, err := rm.SortBy(cast.SortKey{Col: BaseName(j.RightCol)})
	if err != nil {
		return nil, err
	}
	li, err := ls.Schema().Index(BaseName(j.LeftCol))
	if err != nil {
		return nil, err
	}
	ri, err := rs.Schema().Index(BaseName(j.RightCol))
	if err != nil {
		return nil, err
	}
	lk, err := ls.Ints(li)
	if err != nil {
		return nil, fmt.Errorf("merge join needs int64 keys: %w", err)
	}
	rk, err := rs.Ints(ri)
	if err != nil {
		return nil, fmt.Errorf("merge join needs int64 keys: %w", err)
	}
	var leftIdx, rightIdx []int32
	a, b := 0, 0
	for a < len(lk) && b < len(rk) {
		switch {
		case lk[a] < rk[b]:
			a++
		case lk[a] > rk[b]:
			b++
		default:
			// Emit the cross product of the equal-key runs.
			a2 := a
			for a2 < len(lk) && lk[a2] == lk[a] {
				a2++
			}
			b2 := b
			for b2 < len(rk) && rk[b2] == rk[b] {
				b2++
			}
			for x := a; x < a2; x++ {
				for y := b; y < b2; y++ {
					leftIdx = append(leftIdx, int32(x))
					rightIdx = append(rightIdx, int32(y))
				}
			}
			a, b = a2, b2
		}
	}
	j.result, err = cast.HConcat(j.schema, ls.Take(leftIdx), rs.Take(rightIdx))
	if err != nil {
		return nil, err
	}
	j.out = int64(j.result.Rows())
	j.emitted = true
	return j.result, nil
}

// Close implements Operator.
func (j *MergeJoinOp) Close() error {
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// Stats implements Operator.
func (j *MergeJoinOp) Stats() OpStats {
	return OpStats{Kind: fmt.Sprintf("MergeJoin(%s=%s)", j.LeftCol, j.RightCol), RowsIn: j.in, RowsOut: j.out}
}

// Children implements Operator.
func (j *MergeJoinOp) Children() []Operator { return []Operator{j.Left, j.Right} }

// --- Sort ---

// SortOp materializes its input and emits it ordered by the keys.
type SortOp struct {
	Child Operator
	Keys  []cast.SortKey

	done bool
	in   int64
}

// NewSort returns a sort operator.
func NewSort(child Operator, keys ...cast.SortKey) *SortOp { return &SortOp{Child: child, Keys: keys} }

// Schema implements Operator.
func (s *SortOp) Schema() cast.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *SortOp) Open(ctx context.Context) error { return s.Child.Open(ctx) }

// Next implements Operator.
func (s *SortOp) Next(ctx context.Context) (*cast.Batch, error) {
	if s.done {
		return nil, nil
	}
	m, err := bulkOrDrain(ctx, s.Child)
	if err != nil {
		return nil, err
	}
	s.in = int64(m.Rows())
	out, err := m.SortBy(s.Keys...)
	if err != nil {
		return nil, err
	}
	s.done = true
	return out, nil
}

// Close implements Operator.
func (s *SortOp) Close() error { return s.Child.Close() }

// Stats implements Operator.
func (s *SortOp) Stats() OpStats {
	return OpStats{Kind: "Sort", RowsIn: s.in, RowsOut: s.in}
}

// Children implements Operator.
func (s *SortOp) Children() []Operator { return []Operator{s.Child} }

// --- GroupBy ---

// AggFn identifies an aggregate function.
type AggFn int

// Aggregate functions.
const (
	AggCount AggFn = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String implements fmt.Stringer.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// AggSpec is one aggregate output: Fn over Col, named As. For AggCount, Col
// may be empty ("COUNT(*)").
type AggSpec struct {
	Fn  AggFn
	Col string
	As  string
}

// GroupByOp hash-aggregates its input. The accumulation fans out over fixed
// row-range partitions on the shared scan pool and the partial aggregates
// combine in ascending partition order (parallel.go's equivalence
// argument), so results match single-partition execution.
type GroupByOp struct {
	Child     Operator
	GroupCols []string
	Aggs      []AggSpec
	// Parts overrides the partition fan-out (0 = auto, 1 = sequential).
	Parts int

	schema cast.Schema
	done   bool
	in     int64
	out    int64
}

// NewGroupBy returns a hash aggregation operator. With no group columns it
// produces a single global-aggregate row.
func NewGroupBy(child Operator, groupCols []string, aggs []AggSpec) (*GroupByOp, error) {
	cs := child.Schema()
	cols := make([]cast.Column, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		i, err := cs.Index(BaseName(g))
		if err != nil {
			return nil, err
		}
		cols = append(cols, cs.Col(i))
	}
	for _, a := range aggs {
		var t cast.Type
		switch a.Fn {
		case AggCount:
			t = cast.Int64
		case AggAvg:
			t = cast.Float64
		case AggSum, AggMin, AggMax:
			i, err := cs.Index(BaseName(a.Col))
			if err != nil {
				return nil, err
			}
			t = cs.Col(i).Type
			if t == cast.Timestamp {
				t = cast.Int64
			}
		default:
			return nil, fmt.Errorf("%w: unknown aggregate %d", ErrExpr, int(a.Fn))
		}
		cols = append(cols, cast.Column{Name: a.As, Type: t})
	}
	s, err := cast.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &GroupByOp{Child: child, GroupCols: groupCols, Aggs: aggs, schema: s}, nil
}

// Schema implements Operator.
func (g *GroupByOp) Schema() cast.Schema { return g.schema }

// Open implements Operator.
func (g *GroupByOp) Open(ctx context.Context) error { return g.Child.Open(ctx) }

// aggState is one aggregate of one group. The extreme of a MIN or MAX is
// kept as the input row holding it, so no value is ever boxed.
type aggState struct {
	count int64
	sum   float64
	ext   int32 // row of the running minimum or maximum; -1 when none
}

// aggInput is the typed view of one aggregate's input column.
type aggInput struct {
	ints []int64   // set for Int64/Timestamp inputs: summed
	flts []float64 // set for Float64 inputs: summed
	// beats is set for MIN and MAX: whether row x strictly beats row y as
	// the extreme, so ties keep the earlier row.
	beats func(x, y int32) bool
}

// groupAccum is the aggregation state of one contiguous row range of the
// input: its groups in first-appearance order (each remembered by its first
// row, which also carries the group's key values) with one aggState per
// aggregate per group. Groups are found through the typed key: an int64 or
// string map for a single key column of that type, else the key columns'
// cast.AppendKey rendering built in a reused buffer.
type groupAccum struct {
	in      *cast.Batch
	keyCols []int
	keyInts []int64  // single Int64/Timestamp key column
	keyStrs []string // single String key column
	byInt   map[int64]int32
	byStr   map[string]int32
	buf     []byte

	aggs   []aggInput
	first  []int32
	states []aggState // len(first) * len(aggs)
}

func newGroupAccum(in *cast.Batch, keyCols []int, aggs []aggInput) *groupAccum {
	acc := &groupAccum{in: in, keyCols: keyCols, aggs: aggs}
	if len(keyCols) == 1 {
		switch in.Schema().Col(keyCols[0]).Type {
		case cast.Int64, cast.Timestamp:
			acc.keyInts, _ = in.Ints(keyCols[0])
			acc.byInt = make(map[int64]int32)
			return acc
		case cast.String:
			acc.keyStrs, _ = in.Strings(keyCols[0])
		}
	}
	acc.byStr = make(map[string]int32)
	return acc
}

// group returns the group of input row r, opening it (first row r, zero
// states) when the key is new.
func (acc *groupAccum) group(r int32) int32 {
	g, next := int32(0), int32(len(acc.first))
	var ok bool
	switch {
	case len(acc.keyCols) == 0:
		ok = next > 0
	case acc.byInt != nil:
		if g, ok = acc.byInt[acc.keyInts[r]]; !ok {
			acc.byInt[acc.keyInts[r]] = next
		}
	case acc.keyStrs != nil:
		if g, ok = acc.byStr[acc.keyStrs[r]]; !ok {
			acc.byStr[acc.keyStrs[r]] = next
		}
	default:
		acc.buf = acc.in.AppendKey(acc.buf[:0], int(r), acc.keyCols)
		if g, ok = acc.byStr[string(acc.buf)]; !ok {
			acc.byStr[string(acc.buf)] = next
		}
	}
	if ok {
		return g
	}
	acc.first = append(acc.first, r)
	for range acc.aggs {
		acc.states = append(acc.states, aggState{ext: -1})
	}
	return next
}

// of returns the aggregate states of group g.
func (acc *groupAccum) of(g int32) []aggState {
	n := len(acc.aggs)
	return acc.states[int(g)*n : (int(g)+1)*n]
}

// accumulate folds input rows [lo, hi) into a fresh accumulator, in row
// order.
func accumulate(m *cast.Batch, groupIdx []int, aggs []aggInput, lo, hi int) *groupAccum {
	acc := newGroupAccum(m, groupIdx, aggs)
	for r := int32(lo); r < int32(hi); r++ {
		sts := acc.of(acc.group(r))
		for i := range sts {
			st, a := &sts[i], &aggs[i]
			st.count++
			switch {
			case a.ints != nil:
				st.sum += float64(a.ints[r])
			case a.flts != nil:
				st.sum += a.flts[r]
			}
			if a.beats != nil && (st.ext < 0 || a.beats(r, st.ext)) {
				st.ext = r
			}
		}
	}
	return acc
}

// combine folds a later partition's accumulator into acc, preserving
// row-order semantics: a group's first row comes from the earliest partition
// containing it, mins/maxes keep the earlier row on ties (as row-order
// iteration does), and sums add in ascending partition order.
func (acc *groupAccum) combine(next *groupAccum) {
	for ng, row := range next.first {
		sts, nsts := acc.of(acc.group(row)), next.of(int32(ng))
		for i := range sts {
			st, nx := &sts[i], &nsts[i]
			st.count += nx.count
			st.sum += nx.sum
			if nx.ext >= 0 && (st.ext < 0 || acc.aggs[i].beats(nx.ext, st.ext)) {
				st.ext = nx.ext
			}
		}
	}
}

// Next implements Operator.
func (g *GroupByOp) Next(ctx context.Context) (*cast.Batch, error) {
	if g.done {
		return nil, nil
	}
	m, err := bulkOrDrain(ctx, g.Child)
	if err != nil {
		return nil, err
	}
	g.in = int64(m.Rows())
	cs := m.Schema()
	groupIdx := make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		gi, err := cs.Index(BaseName(c))
		if err != nil {
			return nil, err
		}
		groupIdx[i] = gi
	}
	aggs := make([]aggInput, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Fn == AggCount && a.Col == "" {
			continue
		}
		ai, err := cs.Index(BaseName(a.Col))
		if err != nil {
			return nil, err
		}
		switch cs.Col(ai).Type {
		case cast.Int64, cast.Timestamp:
			aggs[i].ints, _ = m.Ints(ai)
		case cast.Float64:
			aggs[i].flts, _ = m.Floats(ai)
		}
		switch cmp := m.Comparator(ai); a.Fn {
		case AggMin:
			aggs[i].beats = func(x, y int32) bool { return cmp(x, y) < 0 }
		case AggMax:
			aggs[i].beats = func(x, y int32) bool { return cmp(x, y) > 0 }
		}
	}
	ranges := splitRows(m.Rows(), g.Parts)
	accums := make([]*groupAccum, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) error {
		accums[i] = accumulate(m, groupIdx, aggs, ranges[i].Lo, ranges[i].Hi)
		return nil
	}); err != nil {
		return nil, err
	}
	acc := accums[0]
	for _, nx := range accums[1:] {
		acc.combine(nx)
	}
	out, err := g.emit(m, acc, groupIdx)
	if err != nil {
		return nil, err
	}
	g.out = int64(out.Rows())
	g.done = true
	return out, nil
}

// emit renders the groups, ordered by their AppendKey rendering (the order
// the operator has always produced), as typed output columns.
func (g *GroupByOp) emit(m *cast.Batch, acc *groupAccum, groupIdx []int) (*cast.Batch, error) {
	n := len(acc.first)
	if n == 0 {
		// No input rows, so no groups: no output rows either, except that a
		// global aggregate (no group columns) still yields one row, every
		// aggregate at its zero.
		return cast.NewBatchRows(g.schema, 1-min(len(groupIdx), 1)), nil
	}
	var keys []byte
	ends, order := make([]int, n+1), make([]int32, n)
	for i, row := range acc.first {
		keys = m.AppendKey(keys, int(row), groupIdx)
		ends[i+1], order[i] = len(keys), int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		return bytes.Compare(keys[ends[x]:ends[x+1]], keys[ends[y]:ends[y+1]])
	})

	rows := make([]int32, n)
	for i, gi := range order {
		rows[i] = acc.first[gi]
	}
	cols := make([]any, 0, g.schema.Len())
	for _, ci := range groupIdx {
		cols = append(cols, columnAt(m, ci, rows))
	}
	for i, a := range g.Aggs {
		counts, sums := make([]int64, n), make([]float64, n)
		for j, gi := range order {
			st := acc.of(gi)[i]
			counts[j], sums[j], rows[j] = st.count, st.sum, st.ext
		}
		switch a.Fn {
		case AggCount:
			cols = append(cols, counts)
		case AggSum:
			if g.schema.Col(len(groupIdx)+i).Type != cast.Int64 {
				cols = append(cols, sums)
				continue
			}
			for j, s := range sums {
				counts[j] = int64(s)
			}
			cols = append(cols, counts)
		case AggAvg:
			for j, c := range counts {
				if c != 0 {
					sums[j] /= float64(c)
				}
			}
			cols = append(cols, sums)
		case AggMin, AggMax:
			ci, err := m.Schema().Index(BaseName(a.Col))
			if err != nil {
				return nil, err
			}
			cols = append(cols, columnAt(m, ci, rows))
		}
	}
	return cast.BatchOf(g.schema, cols...)
}

// columnAt gathers column ci of m at rows into a fresh typed slice for
// cast.BatchOf.
func columnAt(m *cast.Batch, ci int, rows []int32) any {
	v, n, _ := ColRef{Name: m.Schema().Col(ci).Name}.evalVec(m, selection{rows: rows})
	return v.column(n)
}

// Close implements Operator.
func (g *GroupByOp) Close() error { return g.Child.Close() }

// Stats implements Operator.
func (g *GroupByOp) Stats() OpStats {
	return OpStats{Kind: "GroupBy", RowsIn: g.in, RowsOut: g.out}
}

// Children implements Operator.
func (g *GroupByOp) Children() []Operator { return []Operator{g.Child} }

// --- Limit ---

// LimitOp truncates its input after N rows.
type LimitOp struct {
	Child Operator
	N     int

	seen int
}

// NewLimit returns a limit operator.
func NewLimit(child Operator, n int) *LimitOp { return &LimitOp{Child: child, N: n} }

// Schema implements Operator.
func (l *LimitOp) Schema() cast.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *LimitOp) Open(ctx context.Context) error { return l.Child.Open(ctx) }

// Next implements Operator.
func (l *LimitOp) Next(ctx context.Context) (*cast.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Rows() > l.N {
		b, err = b.ViewRange(0, l.N-l.seen)
		if err != nil {
			return nil, err
		}
	}
	l.seen += b.Rows()
	return b, nil
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.Child.Close() }

// Stats implements Operator.
func (l *LimitOp) Stats() OpStats {
	return OpStats{Kind: fmt.Sprintf("Limit(%d)", l.N), RowsIn: int64(l.seen), RowsOut: int64(l.seen)}
}

// Children implements Operator.
func (l *LimitOp) Children() []Operator { return []Operator{l.Child} }
