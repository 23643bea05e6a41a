package relational

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"polystorepp/internal/cast"
	"polystorepp/internal/partition"
)

// This file holds the relational kernels: each is a function from whole input
// batches to one output batch, the unit the middleware dispatches and costs
// (§III-A1). Engine.Query and the relational adapter call the same ones, so a
// statement means one thing whichever way it enters. Every kernel reads ctx
// on entry and returns its error with no output; the partitioned ones read it
// again per task (partition.Pool.Do). What leaves a kernel is immutable and
// shares its inputs' column storage wherever it can (see package cast).

// ChunkRows is the row width of chunked delivery: what Chunked cuts an input
// into, and what a materialized result is streamed out in.
const ChunkRows = 1024

// OpStats is the execution record of one step of a statement, as
// Engine.Query returns them: what ran, and the rows it read and produced.
type OpStats struct {
	Kind    string
	RowsIn  int64
	RowsOut int64
}

// Kernel is a one-input kernel bound to its arguments. parts is the partition
// fan-out to run at: 0 sizes it from the input and the pool width, 1 keeps
// one partition; the result is the same at any value.
type Kernel func(ctx context.Context, in *cast.Batch, parts int) (*cast.Batch, error)

// errEnough stops Chunked's walk once the limit is met.
var errEnough = errors.New("relational: enough rows")

// Chunked runs chain over in one width-row chunk at a time, each chunk at one
// partition, in row order. Every non-empty output is handed to emit (when
// set) before the next chunk is read, and the result is the concatenation of
// exactly those outputs — by cast.Concat's rules, so a single output is
// handed back itself and outputs that tile one snapshot become a view of it.
// With limit >= 0 the walk stops as soon as limit rows are out, the last
// output cut to fit, and reads nothing of in beyond the chunk that got there.
// schema is the chain's output schema. ctx is read per chunk; an error from
// emit aborts the walk and is returned as it is.
func Chunked(ctx context.Context, in *cast.Batch, width int, schema cast.Schema, chain []Kernel, limit int, emit func(*cast.Batch) error) (*cast.Batch, error) {
	var outs []*cast.Batch
	total := 0
	step := func(chunk *cast.Batch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if limit >= 0 && total >= limit {
			return errEnough
		}
		var err error
		for _, k := range chain {
			if chunk, err = k(ctx, chunk, 1); err != nil {
				return err
			}
		}
		if limit >= 0 && total+chunk.Rows() > limit {
			if chunk, err = chunk.ViewRange(0, limit-total); err != nil {
				return err
			}
		}
		if chunk.Rows() == 0 {
			return nil
		}
		total += chunk.Rows()
		if emit != nil {
			if err := emit(chunk); err != nil {
				return err
			}
		}
		outs = append(outs, chunk)
		return nil
	}
	var err error
	if in.Rows() > 0 && in.Rows() <= width {
		err = step(in) // the one chunk is the batch itself: no view of it is cut
	} else {
		err = in.ForEachChunk(width, step)
	}
	if err != nil && err != errEnough {
		return nil, err
	}
	return cast.Concat(schema, outs)
}

// Scan reads table t. When an index of t serves part of pred
// (Table.SeekRange) the result is the rows in that key range, in key order,
// as one selection over the heap snapshot — no column is gathered until
// somebody reads it; otherwise it is the heap snapshot itself. pred is a
// hint: whoever passes it still applies it in full. The second result names
// the access path taken (§III-A2), for reports.
func Scan(ctx context.Context, t *Table, pred Expr) (*cast.Batch, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	col, lo, hi, ok := t.SeekRange(pred)
	if !ok {
		return t.Snapshot(), "SeqScan(" + t.Name() + ")", nil
	}
	snap, rows, err := t.SnapshotRange(col, lo, hi)
	if err != nil {
		return nil, "", err
	}
	return snap.Take(rows), fmt.Sprintf("IndexScan(%s.%s)", t.Name(), col), nil
}

// Filter keeps the rows of in that satisfy pred, in order, and fails with the
// first failing row's error. The predicate fans out over fixed row-range
// partitions on the shared scan pool (parallel.go).
func Filter(ctx context.Context, in *cast.Batch, pred Expr, parts int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return parFilter(ctx, in, pred, parts)
}

// ProjItem is one output column of a projection: an expression plus its
// output name.
type ProjItem struct {
	E    Expr
	Name string
}

// ProjectSchema resolves the output schema of items over input schema in.
func ProjectSchema(in cast.Schema, items []ProjItem) (cast.Schema, error) {
	cols := make([]cast.Column, 0, len(items))
	for _, it := range items {
		t, err := it.E.ResultType(in)
		if err != nil {
			return cast.Schema{}, err
		}
		cols = append(cols, cast.Column{Name: it.Name, Type: t})
	}
	return cast.NewSchema(cols...)
}

// Project evaluates items per row of in into a batch under schema, which is
// ProjectSchema of in's — resolved by the caller, once, however many chunks
// it projects. It fails with the error of the lowest failing row, and there
// of the leftmost failing item. Computed items fan out over row-range
// partitions (parallel.go); bare columns share in's storage.
func Project(ctx context.Context, in *cast.Batch, items []ProjItem, schema cast.Schema, parts int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return parProject(ctx, in, items, schema, parts)
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

// HashBuild is the build half of a hash equi-join: the right input indexed by
// its key column, ready for any number of probes. The output schema is
// left ++ right.
type HashBuild struct {
	// Kind names the join for reports, ON columns probe side first.
	Kind string

	schema cast.Schema
	li     int // probe key column
	table  *joinTable
	right  *cast.Batch
}

// BuildHash indexes right for a join on left.leftCol = right.rightCol against
// probe batches of schema left; the two columns may be given in either order.
// The build fans out over contiguous row ranges into key-hash-sharded tables
// merged in partition order (join_parallel.go).
func BuildHash(ctx context.Context, left cast.Schema, right *cast.Batch, leftCol, rightCol string, parts int) (*HashBuild, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	leftCol, rightCol = orientJoin(right.Schema(), leftCol, rightCol)
	schema, err := left.Concat(right.Schema())
	if err != nil {
		return nil, err
	}
	ci, err := right.Schema().Index(BaseName(rightCol))
	if err != nil {
		return nil, err
	}
	li, err := left.Index(BaseName(leftCol))
	if err != nil {
		return nil, err
	}
	table, err := buildJoinTable(ctx, right, ci, left.Col(li).Type, parts)
	if err != nil {
		return nil, err
	}
	return &HashBuild{Kind: fmt.Sprintf("HashJoin(%s=%s)", leftCol, rightCol), schema: schema, li: li, table: table, right: right}, nil
}

// Schema returns the join's output schema.
func (h *HashBuild) Schema() cast.Schema { return h.schema }

// Probe is the join's Kernel: the rows of in matched against the build side,
// in in's row order with each row's matches in build-row order. It fans out
// one task per probe partition with an order-preserving merge
// (join_parallel.go), and gathers neither side.
func (h *HashBuild) Probe(ctx context.Context, in *cast.Batch, parts int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return parProbe(ctx, in, h.li, h.table, h.right, h.schema, parts)
}

// MergeJoin sort-merge equi-joins two inputs on int64 key columns, given in
// either order — the paper's §III worked example ("DB1 performs a sort-merge
// on Date"). Both inputs are sorted by their key and merged; the output
// schema is left ++ right. ctx is read once per run of equal keys, whose
// cross product is the only part of the merge that can outgrow its inputs.
// The second result names the join for reports.
func MergeJoin(ctx context.Context, left, right *cast.Batch, leftCol, rightCol string) (*cast.Batch, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	leftCol, rightCol = orientJoin(right.Schema(), leftCol, rightCol)
	schema, err := left.Schema().Concat(right.Schema())
	if err != nil {
		return nil, "", err
	}
	ls, err := left.SortBy(-1, cast.SortKey{Col: BaseName(leftCol)})
	if err != nil {
		return nil, "", err
	}
	rs, err := right.SortBy(-1, cast.SortKey{Col: BaseName(rightCol)})
	if err != nil {
		return nil, "", err
	}
	li, err := ls.Schema().Index(BaseName(leftCol))
	if err != nil {
		return nil, "", err
	}
	ri, err := rs.Schema().Index(BaseName(rightCol))
	if err != nil {
		return nil, "", err
	}
	lk, err := ls.Ints(li)
	if err != nil {
		return nil, "", fmt.Errorf("merge join needs int64 keys: %w", err)
	}
	rk, err := rs.Ints(ri)
	if err != nil {
		return nil, "", fmt.Errorf("merge join needs int64 keys: %w", err)
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
			if err := ctx.Err(); err != nil {
				return nil, "", err
			}
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
	out, err := cast.HConcat(schema, ls.Take(leftIdx), rs.Take(rightIdx))
	if err != nil {
		return nil, "", err
	}
	return out, fmt.Sprintf("MergeJoin(%s=%s)", leftCol, rightCol), nil
}

// Sort returns in ordered by the ORDER BY items, whose columns are in's own
// (they carry no table qualifier). A limit of n >= 0 — the statement's LIMIT —
// returns only the first n rows of that order, found without sorting the rest;
// -1 sorts everything. The result is a selection over in's storage
// (cast.Batch.SortBy).
func Sort(ctx context.Context, in *cast.Batch, order []OrderItem, limit int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keys := make([]cast.SortKey, 0, len(order))
	for _, o := range order {
		keys = append(keys, cast.SortKey{Col: BaseName(o.Col), Desc: o.Desc})
	}
	return in.SortBy(limit, keys...)
}

// Limit returns the first n rows of in — all of them when it has fewer — as a
// view.
func Limit(ctx context.Context, in *cast.Batch, n int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return in.ViewRange(0, min(n, in.Rows()))
}

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

// GroupBySchema resolves the output schema of a group-by over input schema
// in: the group columns under their source names, then one column per
// aggregate.
func GroupBySchema(in cast.Schema, groupCols []string, aggs []AggSpec) (cast.Schema, error) {
	cols := make([]cast.Column, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		i, err := in.Index(BaseName(g))
		if err != nil {
			return cast.Schema{}, err
		}
		cols = append(cols, in.Col(i))
	}
	for _, a := range aggs {
		var t cast.Type
		switch a.Fn {
		case AggCount:
			t = cast.Int64
		case AggAvg:
			t = cast.Float64
		case AggSum, AggMin, AggMax:
			i, err := in.Index(BaseName(a.Col))
			if err != nil {
				return cast.Schema{}, err
			}
			t = in.Col(i).Type
			if t == cast.Timestamp {
				t = cast.Int64
			}
		default:
			return cast.Schema{}, fmt.Errorf("%w: unknown aggregate %d", ErrExpr, int(a.Fn))
		}
		cols = append(cols, cast.Column{Name: a.As, Type: t})
	}
	return cast.NewSchema(cols...)
}

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

// GroupBy hash-aggregates m into a batch under schema, which is
// GroupBySchema of m's; with no group columns it produces a single
// global-aggregate row. The accumulation fans out over fixed row-range
// partitions on the shared scan pool and the partial aggregates combine in
// ascending partition order (parallel.go's equivalence argument), so results
// match single-partition execution.
func GroupBy(ctx context.Context, m *cast.Batch, groupCols []string, aggs []AggSpec, schema cast.Schema, parts int) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs := m.Schema()
	groupIdx := make([]int, len(groupCols))
	for i, c := range groupCols {
		gi, err := cs.Index(BaseName(c))
		if err != nil {
			return nil, err
		}
		groupIdx[i] = gi
	}
	inputs := make([]aggInput, len(aggs))
	for i, a := range aggs {
		if a.Fn == AggCount && a.Col == "" {
			continue
		}
		ai, err := cs.Index(BaseName(a.Col))
		if err != nil {
			return nil, err
		}
		switch cs.Col(ai).Type {
		case cast.Int64, cast.Timestamp:
			inputs[i].ints, _ = m.Ints(ai)
		case cast.Float64:
			inputs[i].flts, _ = m.Floats(ai)
		}
		switch cmp := m.Comparator(ai); a.Fn {
		case AggMin:
			inputs[i].beats = func(x, y int32) bool { return cmp(x, y) < 0 }
		case AggMax:
			inputs[i].beats = func(x, y int32) bool { return cmp(x, y) > 0 }
		}
	}
	ranges := splitRows(m.Rows(), parts)
	accums := make([]*groupAccum, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) error {
		accums[i] = accumulate(m, groupIdx, inputs, ranges[i].Lo, ranges[i].Hi)
		return nil
	}); err != nil {
		return nil, err
	}
	acc := accums[0]
	for _, nx := range accums[1:] {
		acc.combine(nx)
	}
	return renderGroups(m, acc, groupIdx, aggs, schema)
}

// renderGroups renders the groups, ordered by their AppendKey rendering (the
// order group-by has always produced), as typed output columns.
func renderGroups(m *cast.Batch, acc *groupAccum, groupIdx []int, aggs []AggSpec, schema cast.Schema) (*cast.Batch, error) {
	n := len(acc.first)
	if n == 0 {
		// No input rows, so no groups: no output rows either, except that a
		// global aggregate (no group columns) still yields one row, every
		// aggregate at its zero.
		return cast.NewBatchRows(schema, 1-min(len(groupIdx), 1)), nil
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
	cols := make([]any, 0, schema.Len())
	for _, ci := range groupIdx {
		cols = append(cols, columnAt(m, ci, rows))
	}
	for i, a := range aggs {
		counts, sums := make([]int64, n), make([]float64, n)
		for j, gi := range order {
			st := acc.of(gi)[i]
			counts[j], sums[j], rows[j] = st.count, st.sum, st.ext
		}
		switch a.Fn {
		case AggCount:
			cols = append(cols, counts)
		case AggSum:
			if schema.Col(len(groupIdx)+i).Type != cast.Int64 {
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
	return cast.BatchOf(schema, cols...)
}

// columnAt gathers column ci of m at rows into a fresh typed slice for
// cast.BatchOf.
func columnAt(m *cast.Batch, ci int, rows []int32) any {
	v, n, _ := ColRef{Name: m.Schema().Col(ci).Name}.evalVec(m, selection{rows: rows})
	return v.column(n)
}
