package adapter

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/graphstore"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

func clinical(t testing.TB) *datagen.Clinical {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(8)), 60)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func node(kind ir.OpKind, engine string, attrs map[string]any, inputs ...ir.NodeID) *ir.Node {
	g := ir.NewGraph()
	// Build placeholder producers so input ids exist; tests pass values
	// directly, so only the node shape matters.
	id := g.Add(kind, engine, attrs, inputs...)
	return g.MustNode(id)
}

func TestRelationalScanFilterProject(t *testing.T) {
	ctx := context.Background()
	data := clinical(t)
	a := NewRelational("db", relational.NewEngine(data.Relational))
	if a.Engine() != "db" {
		t.Fatal("engine name")
	}
	scanOut, info, err := a.Execute(ctx, node(ir.OpScan, "db", map[string]any{"table": "patients"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if scanOut.Rows() != 60 || info.Native == "" || len(info.Kernels) == 0 {
		t.Fatalf("scan info = %+v", info)
	}
	filtOut, info, err := a.Execute(ctx, node(ir.OpFilter, "db", map[string]any{
		"pred": relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "age"}, R: relational.Const{V: int64(50)}},
	}), []Value{scanOut})
	if err != nil {
		t.Fatal(err)
	}
	if filtOut.Rows() == 0 || filtOut.Rows() >= 60 {
		t.Fatalf("filter rows = %d", filtOut.Rows())
	}
	projOut, _, err := a.Execute(ctx, node(ir.OpProject, "db", map[string]any{
		"items": []relational.ProjItem{{E: relational.ColRef{Name: "pid"}, Name: "pid"}},
	}), []Value{filtOut})
	if err != nil {
		t.Fatal(err)
	}
	if projOut.Batch.Schema().Len() != 1 {
		t.Fatal("projection schema")
	}
	_ = info
}

func TestRelationalJoinSortGroupLimit(t *testing.T) {
	ctx := context.Background()
	data := clinical(t)
	a := NewRelational("db", relational.NewEngine(data.Relational))
	patients, _, err := a.Execute(ctx, node(ir.OpScan, "db", map[string]any{"table": "patients"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	stays, _, err := a.Execute(ctx, node(ir.OpScan, "db", map[string]any{"table": "stays"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rename stays.pid to avoid join schema collision.
	stays, _, err = a.Execute(ctx, node(ir.OpProject, "db", map[string]any{
		"items": []relational.ProjItem{
			{E: relational.ColRef{Name: "pid"}, Name: "spid"},
			{E: relational.ColRef{Name: "icu_hours"}, Name: "icu_hours"},
		},
	}), []Value{stays})
	if err != nil {
		t.Fatal(err)
	}
	joined, info, err := a.Execute(ctx, node(ir.OpHashJoin, "db", map[string]any{
		"left_col": "pid", "right_col": "spid",
	}), []Value{patients, stays})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Rows() == 0 || len(info.Kernels) != 2 {
		t.Fatalf("join info = %+v", info)
	}
	merged, _, err := a.Execute(ctx, node(ir.OpMergeJoin, "db", map[string]any{
		"left_col": "pid", "right_col": "spid",
	}), []Value{patients, stays})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Rows() != joined.Rows() {
		t.Fatalf("merge join %d != hash join %d", merged.Rows(), joined.Rows())
	}
	sorted, _, err := a.Execute(ctx, node(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "icu_hours", Desc: true}},
	}), []Value{joined})
	if err != nil {
		t.Fatal(err)
	}
	hrs, _ := sorted.Batch.Floats(sorted.Batch.Schema().Len() - 1)
	for i := 1; i < len(hrs); i++ {
		if hrs[i-1] < hrs[i] {
			t.Fatal("sort not descending")
		}
	}
	grouped, _, err := a.Execute(ctx, node(ir.OpGroupBy, "db", map[string]any{
		"group_cols": []string{"pid"},
		"aggs":       []relational.AggSpec{{Fn: relational.AggCount, As: "n"}},
	}), []Value{joined})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Rows() != 60 {
		t.Fatalf("groups = %d", grouped.Rows())
	}
	limited, _, err := a.Execute(ctx, node(ir.OpLimit, "db", map[string]any{"n": int64(5)}), []Value{grouped})
	if err != nil || limited.Rows() != 5 {
		t.Fatalf("limit = %d, %v", limited.Rows(), err)
	}
}

func TestRelationalErrors(t *testing.T) {
	ctx := context.Background()
	data := clinical(t)
	a := NewRelational("db", relational.NewEngine(data.Relational))
	if _, _, err := a.Execute(ctx, node(ir.OpScan, "db", map[string]any{"table": "ghost"}), nil); !errors.Is(err, relational.ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, _, err := a.Execute(ctx, node(ir.OpFilter, "db", nil), []Value{{}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no input: %v", err)
	}
	if _, _, err := a.Execute(ctx, node(ir.OpKVScan, "db", nil), nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unsupported: %v", err)
	}
}

func TestGraphAdapter(t *testing.T) {
	ctx := context.Background()
	gs := graphstore.New()
	gs.AddNode(graphstore.Node{ID: 1, Label: "a"})
	gs.AddNode(graphstore.Node{ID: 2, Label: "b"})
	if err := gs.AddEdge(graphstore.Edge{From: 1, To: 2, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	a := NewGraph("g", gs)
	out, _, err := a.Execute(ctx, node(ir.OpGraphMatch, "g", map[string]any{
		"label_a": "a", "edge_type": "x", "label_b": "b",
	}), nil)
	if err != nil || out.Rows() != 1 {
		t.Fatalf("match = %d rows, %v", out.Rows(), err)
	}
	if _, _, err := a.Execute(ctx, node(ir.OpTextSearch, "g", map[string]any{"query": "x"}), nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unsupported: %v", err)
	}
}

func TestTimeseriesAdapterEntitySummary(t *testing.T) {
	ctx := context.Background()
	data := clinical(t)
	a := NewTimeseries("ts", data.Timeseries)
	out, info, err := a.Execute(ctx, node(ir.OpTSWindow, "ts", map[string]any{
		"series_prefix": "vitals/",
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 60 {
		t.Fatalf("entities = %d", out.Rows())
	}
	if !out.Batch.Schema().Has("hr_mean") || !out.Batch.Schema().Has("spo2_mean") {
		t.Fatalf("summary schema = %s", out.Batch.Schema())
	}
	if info.RowsIn == 0 {
		t.Fatal("no input rows recorded")
	}
	// The summary is a mean, and a step without a prefix has nothing to
	// summarize: both are the request's mistake.
	for _, attrs := range []map[string]any{
		{"series_prefix": "vitals/", "agg": "max"},
		{"series_prefix": "vitals/", "agg": "median"},
		{"agg": "mean"},
	} {
		if _, _, err := a.Execute(ctx, node(ir.OpTSWindow, "ts", attrs), nil); !errors.Is(err, ErrBadNode) {
			t.Fatalf("%v: err = %v, want ErrBadNode", attrs, err)
		}
	}
	if out, _, err := a.Execute(ctx, node(ir.OpTSWindow, "ts", map[string]any{"series_prefix": "vitals/", "agg": "mean"}), nil); err != nil || out.Rows() != 60 {
		t.Fatalf("agg mean: %v", err)
	}
}

func TestMLAdapterTrainPredict(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 3)
	s := cast.MustSchema(
		cast.Column{Name: "x", Type: cast.Float64},
		cast.Column{Name: "y", Type: cast.Int64},
	)
	b := cast.NewBatch(s, 0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		x := rng.Float64()*2 - 1
		label := int64(0)
		if x > 0 {
			label = 1
		}
		if err := b.AppendRow(x, label); err != nil {
			t.Fatal(err)
		}
	}
	model, info, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": []string{"x"}, "label_col": "y",
		"hidden": int64(8), "epochs": int64(30), "batch": int64(50), "lr": 0.5,
	}), []Value{{Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	if model.Model == nil || len(info.Kernels) == 0 {
		t.Fatal("no model or kernels")
	}
	pred, _, err := a.Execute(ctx, node(ir.OpPredict, "ml", map[string]any{
		"feature_cols": []string{"x"},
	}), []Value{model, {Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	probs, _ := pred.Batch.Floats(1)
	correct := 0
	labels, _ := b.Ints(1)
	for i, p := range probs {
		got := int64(0)
		if p >= 0.5 {
			got = 1
		}
		if got == labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(probs)) < 0.9 {
		t.Fatalf("accuracy = %d/%d", correct, len(probs))
	}
	if _, _, err := a.Execute(ctx, node(ir.OpPredict, "ml", nil), []Value{{Batch: b}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("predict without model: %v", err)
	}
}

// Zero rows in is zero rows out: an empty join used to reach the model as one
// all-zero example (a phantom training step, a phantom prediction).
func TestMLAdapterEmptyInput(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 3)
	empty := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "x", Type: cast.Float64},
		cast.Column{Name: "y", Type: cast.Int64},
		cast.Column{Name: "note", Type: cast.String},
	), 0)
	train := func(features ...string) (Value, ExecInfo, error) {
		return a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
			"feature_cols": features, "label_col": "y", "hidden": int64(8), "epochs": int64(2), "batch": int64(50),
		}), []Value{{Batch: empty}})
	}
	model, info, err := train("x")
	if err != nil {
		t.Fatal(err)
	}
	if model.Model == nil || info.RowsIn != 0 || len(info.Kernels) != 0 {
		t.Fatalf("train over no rows: model %v, RowsIn %d, %d kernels charged", model.Model, info.RowsIn, len(info.Kernels))
	}
	pred, info, err := a.Execute(ctx, node(ir.OpPredict, "ml", map[string]any{"feature_cols": []string{"x"}}),
		[]Value{model, {Batch: empty}})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Batch.Rows() != 0 || info.RowsIn != 0 || info.RowsOut != 0 || len(info.Kernels) != 0 {
		t.Fatalf("predict over no rows: %d rows out, info %+v", pred.Batch.Rows(), info)
	}
	if got := pred.Batch.Schema().String(); got != "(row int64, prob float64)" {
		t.Fatalf("empty prediction schema = %s", got)
	}
	// The columns are still checked when there is nothing in them.
	if _, _, err := train("note"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("string feature: %v", err)
	}
	if _, _, err := train("absent"); err == nil {
		t.Fatal("unknown feature column accepted")
	}
	if _, _, err := a.Execute(ctx, node(ir.OpKMeans, "ml", map[string]any{"cols": []string{"x"}, "k": int64(1), "iters": int64(3)}),
		[]Value{{Batch: empty}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("kmeans over no rows: %v", err)
	}
}

// Features come straight from the typed columns — every numeric type widens
// to float64 — and the kernel calls charged are the GEMM sequence of the
// steps run: three per layer per mini-batch, one per layer per prediction.
func TestMLAdapterTypedFeaturesAndKernelSequence(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 3)
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "i", Type: cast.Int64},
		cast.Column{Name: "ok", Type: cast.Bool},
		cast.Column{Name: "at", Type: cast.Timestamp},
		cast.Column{Name: "y", Type: cast.Int64},
	), 0)
	for i := 0; i < 130; i++ {
		if err := b.AppendRow(float64(i)/130, int64(i%7), i%2 == 0, int64(i), int64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	x, err := readFeatures(nil, b, []string{"ok", "t.i", "f", "at"})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{-1, -1, -1, -1} // fill writes every value, whatever the buffer held
	if x.fill(row, 3, 4); row[0] != 0 || row[1] != 3 || row[2] != 3.0/130 || row[3] != 3 {
		t.Fatalf("row 3 of the features = %v", row)
	}
	features := []string{"f", "i", "ok", "at"}
	model, info, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": features, "label_col": "y", "hidden": int64(8), "epochs": int64(2), "batch": int64(50),
	}), []Value{{Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	// 130 rows in batches of 50 = 3 steps an epoch, 6 in 2 epochs; 2 layers
	// × 3 GEMMs each, every one made once a step.
	if len(info.Kernels) != 2*3 || cap(info.Kernels) != len(info.Kernels) || info.RowsIn != 130 {
		t.Fatalf("train charged %d kernel records (cap %d) over %d rows", len(info.Kernels), cap(info.Kernels), info.RowsIn)
	}
	for _, k := range info.Kernels {
		if k.Repeat != 3*2 {
			t.Fatalf("kernel %+v repeated %d times, want once a step", k.Work, k.Repeat)
		}
	}
	if w := info.Kernels[0].Work; w.M != 50 || w.K != 4 || w.N != 8 || info.Kernels[5].Work.K != 8 {
		t.Fatalf("kernel shapes: first %+v, last %+v", w, info.Kernels[5].Work)
	}
	pred, info, err := a.Execute(ctx, node(ir.OpPredict, "ml", map[string]any{"feature_cols": features}),
		[]Value{model, {Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := pred.Batch.Ints(0)
	if len(info.Kernels) != 2 || info.Kernels[0].Work.M != 130 || pred.Batch.Rows() != 130 || rows[129] != 129 {
		t.Fatalf("predict: %d kernels, %d rows", len(info.Kernels), pred.Batch.Rows())
	}
}
