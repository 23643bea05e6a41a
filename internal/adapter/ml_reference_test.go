package adapter

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/ir"
	"polystorepp/internal/mlengine"
	"polystorepp/internal/relational"
	"polystorepp/internal/tensor"
)

// featureTensor is how the ML adapter read its input before it read the
// columns in place: every named column widened into a fresh [rows, features]
// tensor (nil for a batch without rows, whose columns are still checked). It
// is kept as the reference the column-fed path is held to.
func featureTensor(b *cast.Batch, cols []string) (*tensor.Tensor, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no feature columns", ErrBadNode)
	}
	var out *tensor.Tensor
	var data []float64
	if b.Rows() > 0 {
		out = tensor.New(b.Rows(), len(cols))
		data = out.Data()
	}
	for j, name := range cols {
		idx, err := b.Schema().Index(relational.BaseName(name))
		if err != nil {
			return nil, err
		}
		switch b.Schema().Col(idx).Type {
		case cast.Int64, cast.Timestamp:
			ints, _ := b.Ints(idx)
			for i, v := range ints {
				data[i*len(cols)+j] = float64(v)
			}
		case cast.Float64:
			flts, _ := b.Floats(idx)
			for i, v := range flts {
				data[i*len(cols)+j] = v
			}
		case cast.Bool:
			bools, _ := b.Bools(idx)
			for i, v := range bools {
				if v {
					data[i*len(cols)+j] = 1
				}
			}
		default:
			return nil, fmt.Errorf("%w: column %q is not numeric", ErrBadInput, name)
		}
	}
	return out, nil
}

// referencePredictions trains and predicts the way the adapter did over
// featureTensor: a fresh generator, one workspace, row-range views of the
// whole-input tensors, and Predict over the whole feature tensor.
func referencePredictions(t *testing.T, seed int64, b *cast.Batch, features []string, label string, hidden, epochs, batch int, lr float64) []float64 {
	t.Helper()
	x, err := featureTensor(b, features)
	if err != nil {
		t.Fatal(err)
	}
	y, err := featureTensor(b, []string{label})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mlengine.NewMLP(rand.New(rand.NewSource(seed)), len(features), hidden, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x == nil {
		return nil
	}
	n := x.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	ws, err := m.NewWorkspace(batch)
	if err != nil {
		t.Fatal(err)
	}
	var xb, yb tensor.Tensor
	for e := 0; e < epochs; e++ {
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			x.RowRangeInto(&xb, lo, hi)
			y.RowRangeInto(&yb, lo, hi)
			if _, err := m.TrainBatch(ws, &xb, &yb, lr); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, d := x.Dim(1), x.Data()
	p, err := m.PredictFill(x.Dim(0), w, func(dst []float64, lo, hi int) { copy(dst, d[lo*w:hi*w]) })
	if err != nil {
		t.Fatal(err)
	}
	return p.Data()
}

// typedBatch has a column of every numeric type and a string column, with a
// label learnable from them; values are small so the network does not
// saturate and every row predicts its own value.
func typedBatch(t *testing.T, n int) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "i", Type: cast.Int64},
		cast.Column{Name: "note", Type: cast.String},
		cast.Column{Name: "at", Type: cast.Timestamp},
		cast.Column{Name: "ok", Type: cast.Bool},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "y", Type: cast.Int64},
	), n)
	rng := rand.New(rand.NewSource(int64(n)))
	for r := 0; r < n; r++ {
		f := rng.Float64()*2 - 1
		i := int64(rng.Intn(5))
		label := int64(0)
		if f+float64(i)/4 > 0.5 {
			label = 1
		}
		if err := b.AppendRow(i, "n", int64(r%3), r%2 == 0, f, label); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// Train and predict reading the columns in place answer bit for bit what the
// whole-input tensor path answered, at row counts on both sides of the
// mini-batch (64) and of the prediction block (256), including none.
func TestMLColumnFedEqualsTensorReference(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 5)
	features := []string{"f", "t.i", "ok", "at"}
	for _, n := range []int{0, 1, 63, 64, 65, 255, 256, 257, 549} {
		b := typedBatch(t, n)
		want := referencePredictions(t, 5, b, features, "y", 8, 3, 64, 0.3)
		model, _, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
			"feature_cols": features, "label_col": "y", "hidden": int64(8), "epochs": int64(3), "batch": int64(64), "lr": 0.3,
		}), []Value{{Batch: b}})
		if err != nil {
			t.Fatalf("n=%d: train: %v", n, err)
		}
		pred, _, err := a.Execute(ctx, node(ir.OpPredict, "ml", map[string]any{"feature_cols": features}),
			[]Value{model, {Batch: b}})
		if err != nil {
			t.Fatalf("n=%d: predict: %v", n, err)
		}
		got, _ := pred.Batch.Floats(1)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d predictions, reference %d", n, len(got), len(want))
		}
		distinct := map[float64]bool{}
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("n=%d: row %d predicts %v, reference %v", n, r, got[r], want[r])
			}
			distinct[got[r]] = true
		}
		if n > 100 && len(distinct) < 10 {
			t.Fatalf("n=%d: only %d distinct predictions: the comparison would not see rows swapped", n, len(distinct))
		}
	}
}

// A model wider than the feature array a node resolves its columns in
// (inlineFeatures) reads them from storage grown past it, and still answers
// bit for bit what the whole-input tensor path answered; so does k-means over
// the same columns, against its own run over the reference tensor.
func TestMLWideFeaturesEqualTensorReference(t *testing.T) {
	ctx := context.Background()
	const n, width = 300, inlineFeatures + 3
	types := []cast.Type{cast.Float64, cast.Int64, cast.Bool, cast.Timestamp}
	cols := []cast.Column{{Name: "y", Type: cast.Int64}}
	var features []string
	for j := range width {
		features = append(features, fmt.Sprintf("c%d", j))
		cols = append(cols, cast.Column{Name: features[j], Type: types[j%len(types)]})
	}
	b := cast.NewBatch(cast.MustSchema(cols...), n)
	rng := rand.New(rand.NewSource(11))
	row := make([]any, len(cols))
	for r := 0; r < n; r++ {
		sum := 0.0
		for j := range width {
			f := rng.Float64()*2 - 1
			switch types[j%len(types)] {
			case cast.Float64:
				row[1+j] = f
			case cast.Bool:
				row[1+j], f = f > 0, max(f, 0)
			default:
				row[1+j] = int64(f * 4)
				f = float64(int64(f*4)) / 4
			}
			sum += f
		}
		row[0] = int64(0)
		if sum > 0 {
			row[0] = int64(1)
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}

	a := NewML("ml", 9)
	want := referencePredictions(t, 9, b, features, "y", 8, 3, 64, 0.3)
	model, _, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": features, "label_col": "y", "hidden": int64(8), "epochs": int64(3), "batch": int64(64), "lr": 0.3,
	}), []Value{{Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	pred, _, err := a.Execute(ctx, node(ir.OpPredict, "ml", map[string]any{"feature_cols": features}), []Value{model, {Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := pred.Batch.Floats(1)
	if len(got) != n {
		t.Fatalf("%d predictions of %d rows", len(got), n)
	}
	distinct := map[float64]bool{}
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("row %d predicts %v, reference %v", r, got[r], want[r])
		}
		distinct[got[r]] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct predictions: the comparison would not see columns swapped", len(distinct))
	}

	x, err := featureTensor(b, features)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mlengine.KMeans(rand.New(rand.NewSource(9)), x, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	clusters, _, err := a.Execute(ctx, node(ir.OpKMeans, "ml", map[string]any{"cols": features, "k": int64(3), "iters": int64(5)}), []Value{{Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	assign, _ := clusters.Batch.Ints(1)
	for r, c := range ref.Assign {
		if assign[r] != int64(c) {
			t.Fatalf("k-means puts row %d in cluster %d, reference %d", r, assign[r], c)
		}
	}
}

// A feature list the batch cannot serve fails as the tensor path failed,
// with the same error, on train, predict and k-means alike.
func TestMLColumnFedErrorsEqualTensorReference(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 5)
	b := typedBatch(t, 10)
	model, _, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": []string{"f"}, "label_col": "y", "hidden": int64(4), "epochs": int64(1),
	}), []Value{{Batch: b}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{{"f", "absent"}, {"note"}, {"f", "t.note"}, {}} {
		_, want := featureTensor(b, cols)
		if want == nil {
			t.Fatalf("%v: the reference accepted it", cols)
		}
		for _, n := range []*ir.Node{
			node(ir.OpTrain, "ml", map[string]any{"feature_cols": cols, "label_col": "y", "hidden": int64(4), "epochs": int64(1)}),
			node(ir.OpPredict, "ml", map[string]any{"feature_cols": cols}),
			node(ir.OpKMeans, "ml", map[string]any{"cols": cols, "k": int64(2), "iters": int64(2)}),
		} {
			in := []Value{{Batch: b}}
			if n.Kind == ir.OpPredict {
				in = []Value{model, {Batch: b}}
			}
			if _, _, err := a.Execute(ctx, n, in); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s over %v: error %v, reference %v", n.Kind, cols, err, want)
			}
		}
	}
	// A label that is not numeric fails the same way too.
	_, want := featureTensor(b, []string{"note"})
	if _, _, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": []string{"f"}, "label_col": "note", "hidden": int64(4), "epochs": int64(1),
	}), []Value{{Batch: b}}); err == nil || err.Error() != want.Error() {
		t.Fatalf("string label: error %v, reference %v", err, want)
	}
}

// BenchmarkMLTrainPredict880 trains (hidden 16, 2 epochs, batch 64, as the
// cross_engine workload does) and predicts over an 880-row, 11-column batch,
// the ML half of one cross_engine request on the migrated features. It
// allocates the model, the predict output and the kernel-call records; the
// input is read in place (the whole-input tensors were 2 × 880 × 7 × 8 B).
func BenchmarkMLTrainPredict880(b *testing.B) {
	const rows = 880
	s := cast.MustSchema(
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "age", Type: cast.Int64},
		cast.Column{Name: "gender_male", Type: cast.Bool},
		cast.Column{Name: "prior_visits", Type: cast.Int64},
		cast.Column{Name: "npid", Type: cast.Int64},
		cast.Column{Name: "icu_hours", Type: cast.Float64},
		cast.Column{Name: "n_stays", Type: cast.Int64},
		cast.Column{Name: "long_stay", Type: cast.Int64},
		cast.Column{Name: "vpid", Type: cast.Int64},
		cast.Column{Name: "hr_mean", Type: cast.Float64},
		cast.Column{Name: "spo2_mean", Type: cast.Float64},
	)
	batch := cast.NewBatch(s, rows)
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rows; r++ {
		if err := batch.AppendRow(int64(r), int64(20+rng.Intn(70)), rng.Intn(2) == 0, int64(rng.Intn(8)), int64(r),
			rng.Float64()*200, int64(1+rng.Intn(4)), int64(rng.Intn(2)), int64(r), 60+rng.Float64()*40, 90+rng.Float64()*10); err != nil {
			b.Fatal(err)
		}
	}
	features := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
	train := node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": features, "label_col": "long_stay", "hidden": int64(16), "epochs": int64(2), "batch": int64(64), "lr": 0.3,
	})
	predict := node(ir.OpPredict, "ml", map[string]any{"feature_cols": features})
	a := NewML("ml", 1)
	ctx := context.Background()
	in := []Value{{Batch: batch}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, _, err := a.Execute(ctx, train, in)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := a.Execute(ctx, predict, []Value{model, in[0]}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictRowColumnAroundCap: predict numbers its rows 0..n-1. Up to
// maxSharedRows the column is a view of the one shared column, capped at n
// so that an append cannot reach the shared storage; past the cap a
// prediction numbers its rows in a column of its own. The sizes step down
// and back up across the cap, so the shared column is read after it grew.
func TestPredictRowColumnAroundCap(t *testing.T) {
	ctx := context.Background()
	a := NewML("ml", 3)
	features := []string{"x"}
	batch := func(n int) *cast.Batch {
		xs, ys := make([]float64, n), make([]int64, n)
		for i := range xs {
			xs[i], ys[i] = float64(i%7), int64(i%2)
		}
		b, err := cast.BatchOf(cast.MustSchema(cast.Column{Name: "x", Type: cast.Float64}, cast.Column{Name: "y", Type: cast.Int64}), xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	model, _, err := a.Execute(ctx, node(ir.OpTrain, "ml", map[string]any{
		"feature_cols": features, "label_col": "y", "hidden": int64(2), "epochs": int64(1),
	}), []Value{{Batch: batch(64)}})
	if err != nil {
		t.Fatal(err)
	}
	predict := node(ir.OpPredict, "ml", map[string]any{"feature_cols": features})
	for _, n := range []int{0, 5, maxSharedRows - 1, maxSharedRows, maxSharedRows + 1, 5, maxSharedRows - 1} {
		out, _, err := a.Execute(ctx, predict, []Value{model, {Batch: batch(n)}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rows, err := out.Batch.Ints(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != n || cap(rows) != n {
			t.Fatalf("n=%d: row column of length %d, capacity %d", n, len(rows), cap(rows))
		}
		for i, r := range rows {
			if r != int64(i) {
				t.Fatalf("n=%d: row %d numbered %d", n, i, r)
			}
		}
		if n == 0 {
			continue
		}
		shared := *a.rows.Load()
		if got := &rows[0] == &shared[0]; got != (n <= maxSharedRows) {
			t.Fatalf("n=%d: row column in the shared one %t, want %t", n, got, n <= maxSharedRows)
		}
	}
	if got := len(*a.rows.Load()); got != maxSharedRows {
		t.Fatalf("shared column holds %d rows, want the cap %d", got, maxSharedRows)
	}
}

// TestInitialModelIsFreshDraw: the initial weights a train node starts from
// are drawn once per (seed, sizes) and copied, and they are the weights a
// fresh generator of the adapter's seed draws: each model initialModel
// returns — the second after the first was trained — predicts bit for bit
// what a model drawn from a fresh generator predicts. Sizes NewMLP refuses
// are refused, not memoized.
func TestInitialModelIsFreshDraw(t *testing.T) {
	a := NewML("ml", 42)
	for range 2 {
		if _, err := a.initialModel(3, 0); !errors.Is(err, mlengine.ErrConfig) {
			t.Fatalf("a hidden layer of 0 units: %v, want ErrConfig", err)
		}
	}
	want, err := mlengine.NewMLP(rand.New(rand.NewSource(42)), 3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := func(dst []float64, lo, hi int) {
		for i := range dst {
			dst[i] = float64((lo*3+i)%7) - 3
		}
	}
	y := func(dst []float64, lo, hi int) {
		for i := range dst {
			dst[i] = float64((lo + i) % 2)
		}
	}
	predict := func(m *mlengine.MLP) []float64 {
		p, err := m.PredictFill(8, 3, x)
		if err != nil {
			t.Fatal(err)
		}
		return p.Data()
	}
	ref := predict(want)
	for round := range 2 {
		m, err := a.initialModel(3, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range predict(m) {
			if math.Float64bits(p) != math.Float64bits(ref[i]) {
				t.Fatalf("round %d: row %d predicts %v, a fresh draw %v", round, i, p, ref[i])
			}
		}
		if err := m.Fit(8, 4, 3, 0.5, x, y, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}
