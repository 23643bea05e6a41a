package mlengine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"polystorepp/internal/tensor"
)

// refForward and refTrainBatch are the allocating forward and SGD step the
// workspace kernels replaced — a fresh tensor per product, explicit
// transposes, pre-activations kept for the ReLU gate — kept as the reference
// the in-place path must match bit for bit.
func refForward(m *MLP, x *tensor.Tensor) (zs, as []*tensor.Tensor) {
	as = append(as, x)
	for i, w := range m.weights {
		z := matMul(as[i], w)
		zd, bd, cols := z.Data(), m.biases[i].Data(), z.Dim(1)
		for r := 0; r < z.Dim(0); r++ {
			for c := 0; c < cols; c++ {
				zd[r*cols+c] += bd[c]
			}
		}
		zs = append(zs, z)
		if i == len(m.weights)-1 {
			as = append(as, clone(z).ApplyInPlace(sigmoid))
		} else {
			as = append(as, clone(z).ApplyInPlace(func(v float64) float64 { return math.Max(0, v) }))
		}
	}
	return zs, as
}

func refTrainBatch(m *MLP, x, y *tensor.Tensor, lr float64) float64 {
	n := x.Dim(0)
	zs, as := refForward(m, x)
	pred := as[len(as)-1]
	var loss float64
	pd, yd := pred.Data(), y.Data()
	for i := range pd {
		p := math.Min(math.Max(pd[i], 1e-12), 1-1e-12)
		loss += -(yd[i]*math.Log(p) + (1-yd[i])*math.Log(1-p))
	}
	loss /= float64(n)
	delta := sub(pred, y)
	for layer := len(m.weights) - 1; layer >= 0; layer-- {
		gradW := matMul(transpose(as[layer]), delta)
		gradW.Scale(1 / float64(n))
		cols := delta.Dim(1)
		gradB := tensor.New(cols)
		dd, gb := delta.Data(), gradB.Data()
		for r := 0; r < delta.Dim(0); r++ {
			for c := 0; c < cols; c++ {
				gb[c] += dd[r*cols+c]
			}
		}
		for c := range gb {
			gb[c] /= float64(n)
		}
		if layer > 0 {
			next := matMul(delta, transpose(m.weights[layer]))
			zd, nd := zs[layer-1].Data(), next.Data()
			for i := range nd {
				if zd[i] <= 0 {
					nd[i] = 0
				}
			}
			delta = next
		}
		m.weights[layer].AddInPlace(gradW.Scale(-lr))
		m.biases[layer].AddInPlace(gradB.Scale(-lr))
	}
	return loss
}

// matMul, transpose, clone and sub are the reference's allocating operations.
func matMul(a, b *tensor.Tensor) *tensor.Tensor {
	c := tensor.New(a.Dim(0), b.Dim(1))
	tensor.MatMulInto(c, a, b)
	return c
}

func transpose(a *tensor.Tensor) *tensor.Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := tensor.New(n, m)
	for i := range m {
		for j := range n {
			out.Data()[j*m+i] = a.Data()[i*n+j]
		}
	}
	return out
}

func clone(a *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape()...)
	copy(out.Data(), a.Data())
	return out
}

func sub(a, b *tensor.Tensor) *tensor.Tensor {
	out := clone(a)
	for i, v := range b.Data() {
		out.Data()[i] -= v
	}
	return out
}

// sameBits is exact equality that also tells -0 from +0.
func sameBits(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return slices.Equal(a.Shape(), b.Shape()) && slices.Equal(ad, bd)
}

// TestReLUIsMax: the ReLU loop answers math.Max(0, v) bit for bit — -0 and
// every negative become +0 — and NaN for NaN.
func TestReLUIsMax(t *testing.T) {
	zero := 0.0
	vals := []float64{-3, math.Copysign(0, -1), 0, 2.5, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		math.Inf(-1), math.Inf(1), math.MaxFloat64, math.NaN(), zero / zero}
	got := slices.Clone(vals)
	relu(got)
	for i, v := range vals {
		want := math.Max(0, v)
		if math.IsNaN(want) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("relu(NaN) = %v", got[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("relu(%v) = %v (bits %x), math.Max(0, v) = %v (bits %x)", v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// Three epochs of mini-batch SGD out of one workspace — a short final batch
// every epoch, two hidden layers — leave exactly the weights the allocating
// reference leaves, and report exactly its losses. Fit, which computes no
// loss, leaves them too.
func TestTrainTrajectoryBitEqualToReference(t *testing.T) {
	const n, batch, dim = 200, 64, 7
	x, y := synthBinary(rand.New(rand.NewSource(11)), n, dim)
	got, _ := NewMLP(rand.New(rand.NewSource(12)), dim, 16, 5, 1)
	want, _ := NewMLP(rand.New(rand.NewSource(12)), dim, 16, 5, 1)
	ws, err := got.NewWorkspace(batch)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			xb, yb := new(tensor.Tensor), new(tensor.Tensor)
			x.RowRangeInto(xb, lo, hi)
			y.RowRangeInto(yb, lo, hi)
			loss, err := got.TrainBatch(ws, xb, yb, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if ref := refTrainBatch(want, xb, yb, 0.3); loss != ref {
				t.Fatalf("epoch %d rows [%d,%d): loss %v, reference %v", epoch, lo, hi, loss, ref)
			}
		}
	}
	fit, _ := NewMLP(rand.New(rand.NewSource(12)), dim, 16, 5, 1)
	rows := func(src *tensor.Tensor) Fill {
		return func(dst []float64, lo, hi int) { copy(dst, src.Data()[lo*src.Dim(1):hi*src.Dim(1)]) }
	}
	if err := fit.Fit(n, batch, 3, 0.3, rows(x), rows(y), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range want.weights {
		if !sameBits(got.weights[i], want.weights[i]) || !sameBits(got.biases[i], want.biases[i]) {
			t.Fatalf("layer %d parameters diverged from the reference", i)
		}
		if !sameBits(fit.weights[i], want.weights[i]) || !sameBits(fit.biases[i], want.biases[i]) {
			t.Fatalf("layer %d parameters Fit leaves diverged from the reference", i)
		}
	}
}

// PredictFill walks its input a block at a time; every row must come out as the
// one-shot reference forward pass computes it, whether or not the row count
// is a multiple of the block.
func TestBlockedPredictEqualsOneShot(t *testing.T) {
	m, _ := NewMLP(rand.New(rand.NewSource(21)), 7, 16, 1)
	for _, n := range []int{1, predictBlock - 1, predictBlock, 2*predictBlock + 37} {
		x, _ := synthBinary(rand.New(rand.NewSource(int64(n))), n, 7)
		got, err := predict(m, x)
		if err != nil {
			t.Fatal(err)
		}
		_, as := refForward(m, x)
		if !sameBits(got, as[len(as)-1]) {
			t.Fatalf("n=%d: blocked PredictFill differs from the one-shot forward pass", n)
		}
	}
}

// One model feeds the concurrent predict nodes of a wide plan: the scratch
// space is per call, never on the model. Run under -race in CI.
func TestConcurrentPredictOnSharedModel(t *testing.T) {
	m, _ := NewMLP(rand.New(rand.NewSource(31)), 7, 16, 1)
	other, _ := NewMLP(rand.New(rand.NewSource(32)), 3, 4, 1) // a second architecture churning the pool
	x, _ := synthBinary(rand.New(rand.NewSource(33)), 3*predictBlock+5, 7)
	ox, _ := synthBinary(rand.New(rand.NewSource(34)), 10, 3)
	want, err := predict(m, x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := predict(m, x)
				if err != nil || !sameBits(got, want) {
					t.Errorf("concurrent PredictFill disagrees with the serial call (err %v)", err)
					return
				}
				if _, err := predict(other, ox); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkTrainBatch64x7x16(b *testing.B) {
	x, y := synthBinary(rand.New(rand.NewSource(1)), 64, 7)
	m, _ := NewMLP(rand.New(rand.NewSource(2)), 7, 16, 1)
	ws, err := m.NewWorkspace(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainBatch(ws, x, y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
