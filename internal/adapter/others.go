package adapter

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"polystorepp/internal/cast"
	"polystorepp/internal/graphstore"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/mlengine"
	"polystorepp/internal/relational"
	"polystorepp/internal/tensor"
	"polystorepp/internal/textstore"
	"polystorepp/internal/timeseries"
)

// The output schemas of the operators whose columns do not depend on their
// input, built once: a Schema is never written after NewSchema, so every
// batch of an operator shares its one.
var (
	graphMatchSchema = cast.MustSchema(cast.Column{Name: "a", Type: cast.Int64}, cast.Column{Name: "b", Type: cast.Int64})
	textSearchSchema = cast.MustSchema(cast.Column{Name: "doc_id", Type: cast.Int64}, cast.Column{Name: "score", Type: cast.Float64})
	kvScanSchema     = cast.MustSchema(cast.Column{Name: "key", Type: cast.String}, cast.Column{Name: "value", Type: cast.String})
	predictSchema    = cast.MustSchema(cast.Column{Name: "row", Type: cast.Int64}, cast.Column{Name: "prob", Type: cast.Float64})
	kmeansSchema     = cast.MustSchema(cast.Column{Name: "row", Type: cast.Int64}, cast.Column{Name: "cluster", Type: cast.Int64})
)

// --- Graph adapter ---

// Graph adapts a graph engine instance.
type Graph struct {
	name  string
	store *graphstore.Store
}

// NewGraph returns a graph adapter.
func NewGraph(name string, store *graphstore.Store) *Graph {
	return &Graph{name: name, store: store}
}

// Engine implements Adapter.
func (a *Graph) Engine() string { return a.name }

// DataVersion implements DataVersioner.
func (a *Graph) DataVersion() uint64 { return a.store.Version() }

// Execute implements Adapter.
func (a *Graph) Execute(_ context.Context, n *ir.Node, _ []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	switch n.Kind {
	case ir.OpGraphMatch:
		pairs := a.store.MatchPattern(n.StringAttr("label_a"), n.StringAttr("edge_type"), n.StringAttr("label_b"))
		out := cast.NewBatch(graphMatchSchema, len(pairs))
		for _, p := range pairs {
			if err := out.AppendRow(int64(p[0]), int64(p[1])); err != nil {
				return Value{}, info, err
			}
		}
		info.RowsOut = int64(out.Rows())
		info.Kernels = []KernelCall{{Class: hw.KHashProbe, Work: hw.Work{Items: int64(a.store.Edges())}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	default:
		return Value{}, info, fmt.Errorf("%w: %s on graph engine", ErrUnsupported, n.Kind)
	}
}

// --- Text adapter ---

// Text adapts a text engine instance.
type Text struct {
	name  string
	store *textstore.Store
}

// NewText returns a text adapter.
func NewText(name string, store *textstore.Store) *Text {
	return &Text{name: name, store: store}
}

// Engine implements Adapter.
func (a *Text) Engine() string { return a.name }

// DataVersion implements DataVersioner.
func (a *Text) DataVersion() uint64 { return a.store.Version() }

// Execute implements Adapter.
func (a *Text) Execute(_ context.Context, n *ir.Node, _ []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	switch n.Kind {
	case ir.OpTextSearch:
		hits, err := a.store.Search(n.StringAttr("query"), int(n.IntAttr("k")))
		if err != nil {
			return Value{}, info, err
		}
		out := cast.NewBatch(textSearchSchema, len(hits))
		for _, h := range hits {
			if err := out.AppendRow(h.DocID, h.Score); err != nil {
				return Value{}, info, err
			}
		}
		info.RowsOut = int64(out.Rows())
		info.Kernels = []KernelCall{{Class: hw.KHashProbe, Work: hw.Work{Items: int64(a.store.Len())}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	default:
		return Value{}, info, fmt.Errorf("%w: %s on text engine", ErrUnsupported, n.Kind)
	}
}

// --- Timeseries adapter ---

// Timeseries adapts a timeseries engine instance. Series are named
// "<prefix><entity>/<metric>", e.g. "vitals/42/hr".
type Timeseries struct {
	name  string
	store *timeseries.Store
}

// NewTimeseries returns a timeseries adapter.
func NewTimeseries(name string, store *timeseries.Store) *Timeseries {
	return &Timeseries{name: name, store: store}
}

// Engine implements Adapter.
func (a *Timeseries) Engine() string { return a.name }

// DataVersion implements DataVersioner.
func (a *Timeseries) DataVersion() uint64 { return a.store.Version() }

// Ingest implements Ingestor: append one point to a series.
func (a *Timeseries) Ingest(_ context.Context, w Ingest) error {
	if w.Series == "" {
		return fmt.Errorf("%w: timeseries ingest needs a series", ErrBadInput)
	}
	return a.store.Append(w.Series, w.TS, w.Value)
}

// Execute implements Adapter.
func (a *Timeseries) Execute(_ context.Context, n *ir.Node, _ []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	switch n.Kind {
	case ir.OpTSWindow:
		prefix := n.StringAttr("series_prefix")
		if prefix == "" {
			return Value{}, info, fmt.Errorf("%w: ts-window without series_prefix", ErrBadNode)
		}
		// The summary is a per-series mean; no other aggregate is offered.
		if agg := n.StringAttr("agg"); agg != "" && agg != "mean" {
			return Value{}, info, fmt.Errorf("%w: unknown agg %q", ErrBadNode, agg)
		}
		return a.entitySummary(prefix, info)

	default:
		return Value{}, info, fmt.Errorf("%w: %s on timeseries engine", ErrUnsupported, n.Kind)
	}
}

// entitySummary shapes the store's summary fold (timeseries.Store.Summary)
// into one row per entity: "<prefix><id>/<metric>" -> columns
// "<metric>_mean". The Figure 2 vitals feature extraction.
func (a *Timeseries) entitySummary(prefix string, info ExecInfo) (Value, ExecInfo, error) {
	fold := a.store.Summary(prefix)
	cols := append(make([]cast.Column, 0, 1+len(fold.Metrics)), cast.Column{Name: "vpid", Type: cast.Int64})
	data := append(make([]any, 0, 1+len(fold.Metrics)), fold.IDs)
	for i, m := range fold.Metrics {
		cols = append(cols, cast.Column{Name: m + "_mean", Type: cast.Float64})
		data = append(data, fold.Means[i])
	}
	s, err := cast.NewSchema(cols...)
	if err != nil {
		return Value{}, info, err
	}
	out, err := cast.BatchOf(s, data...)
	if err != nil {
		return Value{}, info, err
	}
	info.RowsIn = fold.Points
	info.RowsOut = int64(out.Rows())
	info.Kernels = []KernelCall{{Class: hw.KWindowAgg, Work: hw.Work{Items: fold.Points, Bytes: fold.Points * 16}, OutBytes: out.ByteSize()}}
	return Value{Batch: out}, info, nil
}

// --- KV adapter ---

// KV adapts a key/value engine instance.
type KV struct {
	name  string
	store *kvstore.Store
}

// NewKV returns a KV adapter over store.
func NewKV(name string, store *kvstore.Store) *KV {
	return &KV{name: name, store: store}
}

// Engine implements Adapter.
func (a *KV) Engine() string { return a.name }

// DataVersion implements DataVersioner.
func (a *KV) DataVersion() uint64 { return a.store.Version() }

// Ingest implements Ingestor: put a value under a key.
func (a *KV) Ingest(_ context.Context, w Ingest) error {
	if w.Key == "" {
		return fmt.Errorf("%w: kv ingest needs a key", ErrBadInput)
	}
	a.store.Put(w.Key, w.Data)
	return nil
}

// Execute implements Adapter.
func (a *KV) Execute(_ context.Context, n *ir.Node, _ []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	switch n.Kind {
	case ir.OpKVScan:
		prefix := n.StringAttr("prefix")
		keys, vals := a.store.ScanPrefix(prefix)
		out, err := cast.BatchOf(kvScanSchema, keys, vals)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsOut = int64(out.Rows())
		info.Kernels = []KernelCall{{Class: hw.KHashProbe, Work: hw.Work{Items: int64(a.store.Len())}, OutBytes: out.ByteSize()}}
		return Value{Batch: out}, info, nil

	default:
		return Value{}, info, fmt.Errorf("%w: %s on kv engine", ErrUnsupported, n.Kind)
	}
}

// --- ML adapter ---

// ML adapts the ML/DL engine. Training is deterministic for a fixed seed.
type ML struct {
	name string
	seed int64
	// rows is 0..len-1, the column predict's row numbers are views of.
	// Under rowsMu a longer column replaces it; the old one stays valid for
	// whoever holds it, and no one writes to either.
	rows   atomic.Pointer[[]int64]
	rowsMu sync.Mutex
}

// NewML returns an ML adapter with a fixed RNG seed for reproducibility.
func NewML(name string, seed int64) *ML { return &ML{name: name, seed: seed} }

// Engine implements Adapter.
func (a *ML) Engine() string { return a.name }

// Seed implements Seeded.
func (a *ML) Seed() int64 { return a.seed }

// rngs recycles the generators k-means draws from: a math/rand source is
// some 5 KiB, and one reseeded with the adapter's seed replays exactly what a
// fresh one would.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// initialModel returns a copy of the model of sizes (in, hidden, 1) drawn
// from a generator of the adapter's seed: drawn once per (seed, sizes), as
// reseeding refills a source's whole state, and memoized for ≤ 1 024 keys.
func (a *ML) initialModel(in, hidden int) (*mlengine.MLP, error) {
	k := [3]int64{a.seed, int64(in), int64(hidden)}
	mlMemo.Lock()
	defer mlMemo.Unlock()
	if m, ok := mlMemo.models[k]; ok {
		return m.Clone(), nil
	}
	m, err := mlengine.NewMLP(rand.New(rand.NewSource(a.seed)), in, hidden, 1)
	if err != nil {
		return nil, err
	}
	if len(mlMemo.models) < 1024 {
		mlMemo.models[k] = m
	}
	return m.Clone(), nil
}

// Execute implements Adapter.
func (a *ML) Execute(ctx context.Context, n *ir.Node, inputs []Value) (Value, ExecInfo, error) {
	var info ExecInfo
	switch n.Kind {
	case ir.OpFilter, ir.OpProject:
		// The ML engine hosts a general-purpose runtime (the Python/Spark
		// role of Figure 5), so plain dataflow operators run here too.
		out, err := execTabular(ctx, n, inputs, &info)
		return Value{Batch: out}, info, err
	case ir.OpTrain:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		featureCols, _ := n.Attr("feature_cols").([]string)
		var xa [inlineFeatures]featureCol
		var ya [1]featureCol
		x, err := readFeatures(xa[:0], in, featureCols)
		if err != nil {
			return Value{}, info, err
		}
		y, err := readFeatures(ya[:0], in, []string{n.StringAttr("label_col")})
		if err != nil {
			return Value{}, info, err
		}
		m, err := a.initialModel(len(featureCols), int(n.IntAttr("hidden")))
		if err != nil {
			return Value{}, info, err
		}
		epochs := int(n.IntAttr("epochs"))
		nRows := in.Rows()
		if nRows == 0 { // nothing to learn from: the initialised model, no kernel charged
			return Value{Model: m}, info, nil
		}
		lr, _ := n.Attr("lr").(float64)
		if lr == 0 {
			lr = 0.1
		}
		batch := int(n.IntAttr("batch"))
		if batch <= 0 || batch > nRows {
			batch = nRows
		}
		// Checked per epoch so a canceled request (deadline, disconnect)
		// stops burning CPU instead of finishing a doomed training run.
		if err := m.Fit(nRows, batch, epochs, lr, x.fill, y.fill, ctx.Err); err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(nRows)
		if steps := (nRows + batch - 1) / batch * epochs; steps > 0 {
			info.Kernels = gemmCalls(m, batch, true, steps)
		}
		return Value{Model: m}, info, nil

	case ir.OpPredict:
		if len(inputs) < 2 || inputs[0].Model == nil {
			return Value{}, info, fmt.Errorf("%w: predict wants (model, batch)", ErrBadInput)
		}
		m := inputs[0].Model
		in, err := tabular(inputs, 1)
		if err != nil {
			return Value{}, info, err
		}
		featureCols, _ := n.Attr("feature_cols").([]string)
		var xa [inlineFeatures]featureCol
		x, err := readFeatures(xa[:0], in, featureCols)
		if err != nil {
			return Value{}, info, err
		}
		rows, probs := a.rowNumbers(in.Rows()), []float64{}
		if len(rows) > 0 {
			p, err := m.PredictFill(len(rows), len(featureCols), x.fill)
			if err != nil {
				return Value{}, info, err
			}
			probs = p.Data()
			info.Kernels = gemmCalls(m, len(rows), false, 0)
		}
		out, err := cast.BatchOf(predictSchema, rows, probs)
		if err != nil {
			return Value{}, info, err
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		return Value{Batch: out}, info, nil

	case ir.OpKMeans:
		in, err := tabular(inputs, 0)
		if err != nil {
			return Value{}, info, err
		}
		cols, _ := n.Attr("cols").([]string)
		var fa [inlineFeatures]featureCol
		f, err := readFeatures(fa[:0], in, cols)
		if err != nil {
			return Value{}, info, err
		}
		if in.Rows() == 0 {
			return Value{}, info, fmt.Errorf("%w: kmeans over no rows", ErrBadInput)
		}
		x := tensor.New(in.Rows(), len(cols)) // rows checked above, columns by readFeatures
		f.fill(x.Data(), 0, in.Rows())
		k := int(n.IntAttr("k"))
		iters := int(n.IntAttr("iters"))
		rng := rngs.Get().(*rand.Rand)
		rng.Seed(a.seed)
		res, err := mlengine.KMeans(rng, x, k, iters)
		rngs.Put(rng)
		if err != nil {
			return Value{}, info, err
		}
		out := cast.NewBatch(kmeansSchema, len(res.Assign))
		for i, c := range res.Assign {
			if err := out.AppendRow(int64(i), int64(c)); err != nil {
				return Value{}, info, err
			}
		}
		info.RowsIn = int64(in.Rows())
		info.RowsOut = int64(out.Rows())
		info.Kernels = []KernelCall{{Class: hw.KKMeansAssign, Work: hw.Work{
			Items: int64(x.Dim(0)), K: x.Dim(1), N: k, Bytes: int64(x.Size()) * 8,
		}, Repeat: res.Iterations}}
		return Value{Batch: out}, info, nil

	default:
		return Value{}, info, fmt.Errorf("%w: %s on ml engine", ErrUnsupported, n.Kind)
	}
}

// gemmCalls is the kernel calls charged for m's GEMMs over rows examples
// (mlengine.MLP.AppendGEMMs), each made repeat times: built once per
// gemmKey, as nobody writes them, and shared by the executions of a plan.
func gemmCalls(m *mlengine.MLP, rows int, train bool, repeat int) []KernelCall {
	k := gemmKey{repeat: repeat}
	shapes := m.AppendGEMMs(k.shapes[:0], rows, train)
	keyed := len(shapes) <= len(k.shapes) // not a deeper model than a node trains
	mlMemo.Lock()
	defer mlMemo.Unlock()
	if calls, ok := mlMemo.calls[k]; ok && keyed {
		return calls
	}
	calls := make([]KernelCall, len(shapes))
	for i, w := range shapes {
		calls[i] = KernelCall{Class: hw.KGEMM, Work: w, Repeat: repeat}
	}
	if keyed && len(mlMemo.calls) < 1024 { // bounded, as rows vary
		mlMemo.calls[k] = calls
	}
	return calls
}

// gemmKey is one MLP pass's GEMM shapes (a one-hidden-layer model's
// training step has six) and the times each is made.
type gemmKey struct {
	shapes [6]hw.Work
	repeat int
}

var mlMemo = struct {
	sync.Mutex
	calls  map[gemmKey][]KernelCall
	models map[[3]int64]*mlengine.MLP
}{calls: make(map[gemmKey][]KernelCall), models: make(map[[3]int64]*mlengine.MLP)}

// features are named numeric columns of a batch read in place as model
// input: the typed column slices are resolved once, and fill writes any row
// range of them into a row-major float64 buffer. Int64/Timestamp and Bool
// columns widen to float64.
type features []featureCol

// featureCol is one resolved column: the slice its type keeps.
type featureCol struct {
	typ   cast.Type
	ints  []int64
	flts  []float64
	bools []bool
}

// maxSharedRows caps the shared row-number column: a prediction over more
// rows numbers them in a column of its own, so one huge input cannot pin
// the memory for good.
const maxSharedRows = 64 << 10

// rowNumbers returns 0..n-1, predict's "row" column: up to maxSharedRows a
// view of the shared column, its capacity clamped to n so that an append
// cannot reach the shared rows (handed-on batches are never mutated anyway).
// A column too short is replaced by one twice the length asked for.
func (a *ML) rowNumbers(n int) []int64 {
	if p := a.rows.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	if n > maxSharedRows {
		return numbered(n)
	}
	a.rowsMu.Lock()
	defer a.rowsMu.Unlock()
	p := a.rows.Load()
	if p == nil || len(*p) < n {
		col := numbered(min(2*n, maxSharedRows))
		p = &col
		a.rows.Store(p)
	}
	return (*p)[:n:n]
}

// numbered returns 0..n-1 in a column of its own.
func numbered(n int) []int64 {
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = int64(i)
	}
	return rows
}

// inlineFeatures is how many feature columns a node resolves in an array of
// its own frame; a wider input grows past it onto the heap.
const inlineFeatures = 8

// readFeatures resolves cols in b, appending them to dst, which a caller
// points at an array of its own (dst[:0]). Every column is checked, even
// when b has no rows.
func readFeatures(dst features, b *cast.Batch, cols []string) (features, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no feature columns", ErrBadNode)
	}
	for _, name := range cols {
		idx, err := b.Schema().Index(relational.BaseName(name))
		if err != nil {
			return nil, err
		}
		c := featureCol{typ: b.Schema().Col(idx).Type}
		switch c.typ {
		case cast.Int64, cast.Timestamp:
			c.ints, _ = b.Ints(idx) // the schema just named the type
		case cast.Float64:
			c.flts, _ = b.Floats(idx)
		case cast.Bool:
			c.bools, _ = b.Bools(idx)
		default:
			return nil, fmt.Errorf("%w: column %q is not numeric", ErrBadInput, name)
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// fill writes rows [lo, hi) into dst, hi-lo rows of len(f) values each; it
// writes every value, so dst may hold an earlier block.
func (f features) fill(dst []float64, lo, hi int) {
	w := len(f)
	for j, c := range f {
		switch c.typ {
		case cast.Int64, cast.Timestamp:
			for i, v := range c.ints[lo:hi] {
				dst[i*w+j] = float64(v)
			}
		case cast.Float64:
			for i, v := range c.flts[lo:hi] {
				dst[i*w+j] = v
			}
		case cast.Bool:
			for i, v := range c.bools[lo:hi] {
				dst[i*w+j] = 0
				if v {
					dst[i*w+j] = 1
				}
			}
		}
	}
}

// execTabular runs an engine-agnostic Filter or Project node over its
// tabular input with the relational kernel: the relational adapter's rule for
// both kinds, and what adapters whose engines host general-purpose runtimes
// run too.
func execTabular(ctx context.Context, n *ir.Node, inputs []Value, info *ExecInfo) (*cast.Batch, error) {
	in, err := tabular(inputs, 0)
	if err != nil {
		return nil, err
	}
	var out *cast.Batch
	class := hw.KFilter
	switch n.Kind {
	case ir.OpFilter:
		pred, ok := n.Attr("pred").(relational.Expr)
		if !ok {
			return nil, fmt.Errorf("%w: filter without pred", ErrBadNode)
		}
		out, err = relational.Filter(ctx, in, pred)
	case ir.OpProject:
		items, ok := n.Attr("items").([]relational.ProjItem)
		if !ok {
			return nil, fmt.Errorf("%w: project without items", ErrBadNode)
		}
		var schema cast.Schema
		if schema, err = relational.ProjectSchema(in.Schema(), items); err != nil {
			return nil, err
		}
		class = hw.KProject
		out, err = relational.Project(ctx, in, items, schema)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, n.Kind)
	}
	if err != nil {
		return nil, err
	}
	info.unary(class, in, out)
	return out, nil
}
