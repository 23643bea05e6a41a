package relational

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"polystorepp/internal/cast"
)

// This file holds the relational kernels: each is a function from whole input
// batches to one output batch, the unit the middleware dispatches and costs
// (§III-A1). Engine.Query and the relational adapter call the same ones, so a
// statement means one thing whichever way it enters. Each runs one pass over
// its whole input on the calling goroutine, so an answer is the same on any
// host. Every kernel reads ctx on entry and returns its error with no output.
// What leaves a kernel is immutable and shares its inputs' column storage
// wherever it can (see package cast).

// ChunkRows is the rows per record a streamed result is cut into, the rows
// of one zone-map chunk of a table heap, and how many matched pairs a join's
// probe lists between polls of its context.
const ChunkRows = 1024

// OpStats is the execution record of one step of a statement, as
// Engine.Query returns them: what ran, and the rows it read and produced.
type OpStats struct {
	Kind    string
	RowsIn  int64
	RowsOut int64
}

// Scan reads table t by the access path Table.SeekRange chooses for pred: the
// rows of an index's key range, in key order, as one selection over the heap
// snapshot — no column is gathered until somebody reads it; the heap chunks
// whose zone map admits pred, as one view of the snapshot; or the snapshot
// itself. pred is a hint: whoever passes it still applies it in full. The
// second result names the access path taken (§III-A2), for reports.
func Scan(ctx context.Context, t *Table, pred Expr) (*cast.Batch, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	out, path := t.SeekRange(pred)
	return out, path, nil
}

// Filter keeps the rows of in that satisfy pred, in order, and fails with the
// first failing row's error.
func Filter(ctx context.Context, in *cast.Batch, pred Expr) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kept, err := filterRange(in, pred, runOf(0, in.Rows()))
	if err != nil {
		return nil, err
	}
	return take(in, kept)
}

// filterRange evaluates pred over rows of b and returns the kept ones. It
// stops at the first failing row, with that row's error.
func filterRange(b *cast.Batch, pred Expr, rows selection) (selection, error) {
	kept, _, err := pred.evalSel(b, rows)
	if t, ok := err.(notBool); ok {
		err = fmt.Errorf("%w: predicate returned %s", ErrExpr, string(t))
	}
	return kept, err
}

// take returns the rows of src that sel names. A run is one zero-copy view,
// or src itself when it covers all of it — a range predicate over clustered
// rows, a join whose every row matches once; a list is handed to
// cast.Batch.Take, which gathers nothing until a column is read.
func take(src *cast.Batch, sel selection) (*cast.Batch, error) {
	switch {
	case len(sel.rows) > 0:
		return src.Take(sel.rows), nil
	case sel.hi-sel.lo == src.Rows():
		return src, nil
	}
	return src.ViewRange(sel.lo, sel.hi)
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
// ProjectSchema of in's, resolved by the caller. It fails with the error of
// the lowest failing row, and there of the leftmost failing item. A bare
// column reference shares in's column storage; computed items get fresh
// columns.
func Project(ctx context.Context, in *cast.Batch, items []ProjItem, schema cast.Schema) (*cast.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := in.Rows()
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
		v, ok, err := it.E.evalVec(in, runOf(0, upto))
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

// orientJoin returns an ON clause's columns probe side first. The clause may
// be written in either order: the column the build (right) input has is its
// key.
func orientJoin(right cast.Schema, leftCol, rightCol string) (string, string) {
	if !right.Has(BaseName(rightCol)) && right.Has(BaseName(leftCol)) {
		return rightCol, leftCol
	}
	return leftCol, rightCol
}

// HashJoin hash equi-joins left and right on left.leftCol = right.rightCol,
// the two columns given in either order; the output schema is left ++ right,
// in left's row order with each row's matches in right-row order. right is
// the build side, indexed in one pass into a chained table of two arrays,
// and one pass over left probes it (join.go). ctx is read on entry and once
// per ChunkRows matched pairs, so a cancelled join stops within one batch of
// output however many rows its keys multiply into. The second result names
// the join for reports, ON columns probe side first.
func HashJoin(ctx context.Context, left, right *cast.Batch, leftCol, rightCol string) (*cast.Batch, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	leftCol, rightCol = orientJoin(right.Schema(), leftCol, rightCol)
	schema, err := left.Schema().Concat(right.Schema())
	if err != nil {
		return nil, "", err
	}
	ci, err := right.Schema().Index(BaseName(rightCol))
	if err != nil {
		return nil, "", err
	}
	li, err := left.Schema().Index(BaseName(leftCol))
	if err != nil {
		return nil, "", err
	}
	table := buildJoinTable(right, ci, left.Schema().Col(li).Type)
	out, err := table.join(ctx, left, li, right, schema)
	if err != nil {
		return nil, "", err
	}
	return out, fmt.Sprintf("HashJoin(%s=%s)", leftCol, rightCol), nil
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

// aggKind is what an aggregate keeps per group beside the group's count.
type aggKind uint8

const (
	keepCount aggKind = iota // COUNT: nothing
	keepWide                 // SUM of Int64/Timestamp: an exact 128-bit sum
	keepSum                  // other SUMs, AVG: a float64 fold in row order
	keepExt                  // MIN/MAX: the row holding the extreme
)

// aggInput is one aggregate bound to its input column: the typed slice the
// sums and numeric extremes loop over (a string or bool extreme reads its
// column from the batch).
type aggInput struct {
	kind aggKind
	max  bool  // MAX, not MIN
	col  int32 // input column; -1 for COUNT(*)
	ints []int64
	flts []float64
}

// aggCols is one aggregate's state, a column indexed by group: only the one
// its kind reads is set.
type aggCols struct {
	wide []int128
	sums []float64
	ext  []int32
}

// int128 is an exact integer sum in two's complement.
type int128 struct {
	hi int64
	lo uint64
}

func (s *int128) add(v int64) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, uint64(v), 0)
	s.hi += v>>63 + int64(c)
}

// int64 returns the sum and whether it fits an int64.
func (s int128) int64() (int64, bool) {
	return int64(s.lo), s.hi == int64(s.lo)>>63
}

// vectorRows is how many rows the grouped loops take at a time: their group
// ids live in a stack array of this size, never in one sized from the input.
const vectorRows = 256

// slotSpan caps the slot table of a single int64 key: an input of n rows
// takes one when its keys span at most min(2n, slotSpan) values.
const slotSpan = 1 << 16

// groupAccum is the aggregation state of a group-by: its groups, each
// remembered by its first row (which also carries the group's key values),
// the count of each, and one aggCols per aggregate. A single Int64/Timestamp
// key whose values span little finds its groups through the slot table slots
// (key k is group slots[k-base]), which opens every group of the input in key
// order before any row is folded, so the columns are sized exactly. Other
// keys go through a map: an int64 or string map for a single key column of
// that type, else the key columns' cast.AppendKey rendering built in a
// reused buffer.
type groupAccum struct {
	in      *cast.Batch
	keyCols []int
	keyInts []int64  // single Int64/Timestamp key column
	keyStrs []string // single String key column
	base    int64
	slots   []int32
	byInt   map[int64]int32
	byStr   map[string]int32
	buf     []byte

	aggs   []aggInput
	first  []int32
	counts []int64
	states []aggCols // one per aggregate
}

func newGroupAccum(in *cast.Batch, keyCols []int, aggs []aggInput) *groupAccum {
	acc := &groupAccum{in: in, keyCols: keyCols, aggs: aggs, states: make([]aggCols, len(aggs))}
	if len(keyCols) == 1 {
		switch in.Schema().Col(keyCols[0]).Type {
		case cast.Int64, cast.Timestamp:
			acc.keyInts, _ = in.Ints(keyCols[0])
			acc.slotTable()
		case cast.String:
			acc.keyStrs, _ = in.Strings(keyCols[0])
		}
	}
	switch {
	case acc.keyInts != nil && acc.slots == nil:
		acc.byInt = make(map[int64]int32)
	case len(keyCols) > 0 && acc.keyInts == nil:
		acc.byStr = make(map[string]int32)
	}
	return acc
}

// slotTable sets up the slot table when the keys span few enough values,
// and opens their groups in key order.
func (acc *groupAccum) slotTable() {
	keys := acc.keyInts
	if len(keys) == 0 {
		return
	}
	kmin, kmax := keys[0], keys[0]
	for _, k := range keys[1:] {
		kmin, kmax = min(kmin, k), max(kmax, k)
	}
	// kmax-kmin wraps for keys far apart; as a uint64 it is exact.
	if uint64(kmax-kmin) >= uint64(min(2*len(keys), slotSpan)) {
		return
	}
	slots := make([]int32, kmax-kmin+1)
	for i := range slots {
		slots[i] = -1
	}
	for i := len(keys) - 1; i >= 0; i-- { // the earliest row's write lands last
		slots[keys[i]-kmin] = int32(i)
	}
	groups := 0
	for _, first := range slots {
		if first >= 0 {
			groups++
		}
	}
	acc.size(groups)
	for i, first := range slots {
		if first >= 0 {
			slots[i] = acc.open(first)
		}
	}
	acc.base, acc.slots = kmin, slots
}

// size gives every per-group column room for n groups.
func (acc *groupAccum) size(n int) {
	acc.first, acc.counts = make([]int32, 0, n), make([]int64, 0, n)
	for i := range acc.states {
		switch st := &acc.states[i]; acc.aggs[i].kind {
		case keepWide:
			st.wide = make([]int128, 0, n)
		case keepSum:
			st.sums = make([]float64, 0, n)
		case keepExt:
			st.ext = make([]int32, 0, n)
		}
	}
}

// open opens a group whose first row is r: count and sums zero, and r the
// extreme so far.
func (acc *groupAccum) open(r int32) int32 {
	g := int32(len(acc.first))
	acc.first, acc.counts = append(acc.first, r), append(acc.counts, 0)
	for i := range acc.states {
		switch st := &acc.states[i]; acc.aggs[i].kind {
		case keepWide:
			st.wide = append(st.wide, int128{})
		case keepSum:
			st.sums = append(st.sums, 0)
		case keepExt:
			st.ext = append(st.ext, r)
		}
	}
	return g
}

// group returns the group of input row r, opening it when the key is new. A
// key with a slot table never comes here: groupIDs reads the table itself.
func (acc *groupAccum) group(r int32) int32 {
	switch {
	case acc.keyInts != nil:
		k := acc.keyInts[r]
		if g, ok := acc.byInt[k]; ok {
			return g
		}
		acc.byInt[k] = int32(len(acc.first))
	case acc.keyStrs != nil:
		if g, ok := acc.byStr[acc.keyStrs[r]]; ok {
			return g
		}
		acc.byStr[acc.keyStrs[r]] = int32(len(acc.first))
	default:
		acc.buf = acc.in.AppendKey(acc.buf[:0], int(r), acc.keyCols)
		if g, ok := acc.byStr[string(acc.buf)]; ok {
			return g
		}
		acc.byStr[string(acc.buf)] = int32(len(acc.first))
	}
	return acc.open(r)
}

// groupIDs fills ids with the groups of rows [lo, lo+len(ids)) and counts
// the rows into them.
func (acc *groupAccum) groupIDs(ids []int32, lo int) {
	if acc.slots == nil {
		for i := range ids {
			g := acc.group(int32(lo + i))
			ids[i] = g
			acc.counts[g]++
		}
		return
	}
	for i, k := range acc.keyInts[lo : lo+len(ids)] {
		g := acc.slots[k-acc.base]
		ids[i] = g
		acc.counts[g]++
	}
}

// accumulate folds every row of m into a fresh accumulator, in one pass.
// Grouped, it takes a vector of rows at a time: first their group ids and
// counts, then each aggregate as its own typed loop over its column.
// Ungrouped, there are no ids: one loop per aggregate over all rows. Either
// way each group's rows fold in row order.
func accumulate(m *cast.Batch, groupIdx []int, aggs []aggInput) *groupAccum {
	acc, hi := newGroupAccum(m, groupIdx, aggs), m.Rows()
	if len(groupIdx) == 0 {
		if hi > 0 {
			acc.open(0)
			acc.counts[0] = int64(hi)
			for i := range aggs {
				acc.fold(i, nil, 0, hi)
			}
		}
		return acc
	}
	var ids [vectorRows]int32
	for v := 0; v < hi; v += vectorRows {
		vec := ids[:min(vectorRows, hi-v)]
		acc.groupIDs(vec, v)
		for i := range aggs {
			acc.fold(i, vec, v, v+len(vec))
		}
	}
	return acc
}

// fold folds rows [lo, hi) of aggregate i's column into the groups ids
// names, or — ids nil — into group 0, the running value kept in a register.
func (acc *groupAccum) fold(i int, ids []int32, lo, hi int) {
	a, st := &acc.aggs[i], &acc.states[i]
	switch {
	case a.kind == keepWide && ids == nil:
		s := st.wide[0]
		for _, x := range a.ints[lo:hi] {
			s.add(x)
		}
		st.wide[0] = s
	case a.kind == keepWide:
		for j, x := range a.ints[lo:hi] {
			st.wide[ids[j]].add(x)
		}
	case a.kind == keepSum && a.ints != nil:
		sumFold(st.sums, a.ints[lo:hi], ids)
	case a.kind == keepSum && a.flts != nil:
		sumFold(st.sums, a.flts[lo:hi], ids)
	case a.kind != keepExt:
	case a.ints != nil:
		extFold(st.ext, a.ints, ids, lo, hi, a.max)
	case a.flts != nil:
		extFold(st.ext, a.flts, ids, lo, hi, a.max)
	default:
		if strs, err := acc.in.Strings(int(a.col)); err == nil {
			extFold(st.ext, strs, ids, lo, hi, a.max)
			return
		}
		bools, _ := acc.in.Bools(int(a.col))
		for r := lo; r < hi; r++ {
			g := int32(0)
			if ids != nil {
				g = ids[r-lo]
			}
			if boolBeats(bools, int32(r), st.ext[g], a.max) {
				st.ext[g] = int32(r)
			}
		}
	}
}

func sumFold[T int64 | float64](sums []float64, v []T, ids []int32) {
	if ids == nil {
		s := sums[0]
		for _, x := range v {
			s += float64(x)
		}
		sums[0] = s
		return
	}
	for j, x := range v {
		sums[ids[j]] += float64(x)
	}
}

func extFold[T int64 | float64 | string](ext []int32, v []T, ids []int32, lo, hi int, max bool) {
	if ids != nil {
		for j, g := range ids {
			if r := lo + j; beats(v[r], v[ext[g]], max) {
				ext[g] = int32(r)
			}
		}
		return
	}
	e, r := ext[0], lo
	for ; r < hi && v[e] != v[e]; r++ { // a NaN extreme gives way to any row
		e = int32(r)
	}
	// From a number on, the extreme is never a NaN: plain compares will do.
	best := v[e]
	if max {
		for i, x := range v[r:hi] {
			if x > best {
				e, best = int32(r+i), x
			}
		}
	} else {
		for i, x := range v[r:hi] {
			if x < best {
				e, best = int32(r+i), x
			}
		}
	}
	ext[0] = e
}

// beats reports whether value x replaces the running extreme e: strictly
// below it for MIN, above it for MAX, so ties keep the earlier row — or e is
// a NaN (floats only; e != e is false for the other types), which any row
// replaces. The extreme a group reports is its first row when that is a NaN
// (renderGroups): a row-order fold keeps a NaN it starts from, since nothing
// compares below or above one, and from a number on never takes a NaN.
func beats[T int64 | float64 | string](x, e T, max bool) bool {
	if max {
		return x > e || e != e
	}
	return x < e || e != e
}

// boolBeats is beats for bools, false before true.
func boolBeats(v []bool, x, e int32, max bool) bool {
	if max {
		return v[x] && !v[e]
	}
	return !v[x] && v[e]
}

// GroupBy hash-aggregates m into a batch under schema, which is
// GroupBySchema of m's; with no group columns it produces a single
// global-aggregate row. COUNT counts rows; SUM of an Int64/Timestamp column
// is exact, and fails with ErrOverflow when the total does not fit an int64;
// SUM of a Float64 column and AVG of any column fold float64s in row order;
// MIN/MAX keep the order a comparison filters by (a NaN is level with
// everything) and, on ties, the earliest row — a group that starts with a NaN
// reports it. One pass folds every row, so the float64 sum behind a SUM or
// AVG is a plain row loop's, to the last bit, on any host.
func GroupBy(ctx context.Context, m *cast.Batch, groupCols []string, aggs []AggSpec, schema cast.Schema) (*cast.Batch, error) {
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
		in := &inputs[i]
		in.max, in.col = a.Fn == AggMax, -1
		if a.Fn == AggCount && a.Col == "" {
			continue
		}
		ci, err := cs.Index(BaseName(a.Col))
		if err != nil {
			return nil, err
		}
		in.col = int32(ci)
		switch cs.Col(ci).Type {
		case cast.Int64, cast.Timestamp:
			in.ints, _ = m.Ints(ci)
		case cast.Float64:
			in.flts, _ = m.Floats(ci)
		}
		switch {
		case a.Fn == AggMin || a.Fn == AggMax:
			in.kind = keepExt
		case a.Fn == AggSum && in.ints != nil:
			in.kind = keepWide
		case a.Fn == AggAvg || a.Fn == AggSum:
			in.kind = keepSum
		}
	}
	return renderGroups(m, accumulate(m, groupIdx, inputs), groupIdx, aggs, schema)
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
	order := make([]int32, n)
	if n > 1 {
		var keys []byte
		ends := make([]int32, n+1)
		for i, row := range acc.first {
			keys = m.AppendKey(keys, int(row), groupIdx)
			ends[i+1], order[i] = int32(len(keys)), int32(i)
		}
		slices.SortFunc(order, func(x, y int32) int {
			return bytes.Compare(keys[ends[x]:ends[x+1]], keys[ends[y]:ends[y+1]])
		})
	}
	rows := make([]int32, n)
	for i, g := range order {
		rows[i] = acc.first[g]
	}
	cols := make([]any, 0, schema.Len())
	for _, ci := range groupIdx {
		cols = append(cols, columnAt(m, ci, rows))
	}
	for i, a := range aggs {
		in, st := &acc.aggs[i], &acc.states[i]
		switch {
		case a.Fn == AggCount:
			out := make([]int64, n)
			for j, g := range order {
				out[j] = acc.counts[g]
			}
			cols = append(cols, out)
		case in.kind == keepExt:
			for j, g := range order {
				rows[j] = st.ext[g]
				if first := acc.first[g]; in.flts != nil && math.IsNaN(in.flts[first]) {
					rows[j] = first
				}
			}
			cols = append(cols, columnAt(m, int(in.col), rows))
		case in.kind == keepWide:
			out := make([]int64, n)
			for j, g := range order {
				s, ok := st.wide[g].int64()
				if !ok {
					return nil, fmt.Errorf("%w: %s(%s) AS %s is beyond int64", ErrOverflow, a.Fn, a.Col, a.As)
				}
				out[j] = s
			}
			cols = append(cols, out)
		default: // SUM of floats, or of a column with no number to add; AVG
			out := make([]float64, n)
			for j, g := range order {
				out[j] = st.sums[g]
				if a.Fn == AggAvg {
					out[j] /= float64(acc.counts[g])
				}
			}
			cols = append(cols, out)
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
