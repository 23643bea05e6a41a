package tensor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); !errors.Is(err, ErrShape) {
		t.Fatalf("empty shape: %v", err)
	}
	if _, err := New(2, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("zero dim: %v", err)
	}
	if _, err := New(-1); !errors.Is(err, ErrShape) {
		t.Fatalf("negative dim: %v", err)
	}
	tt, err := New(2, 3)
	if err != nil || tt.Size() != 6 || tt.Rank() != 2 {
		t.Fatalf("New(2,3): %v size=%d rank=%d", err, tt.Size(), tt.Rank())
	}
}

func TestAtSetBounds(t *testing.T) {
	a, _ := New(2, 2)
	if err := a.Set(1, 2, 0); !errors.Is(err, ErrBound) {
		t.Fatalf("row oob: %v", err)
	}
	if err := a.Set(1, 0); !errors.Is(err, ErrBound) {
		t.Fatalf("rank mismatch: %v", err)
	}
	if err := a.Set(5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if a.data[3] != 5 {
		t.Fatalf("Set(5, 1, 1) left %v", a.data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := filled(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := filled(t, []float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := filled(t, []float64{58, 64, 139, 154}, 2, 2)
	if !equal(c, want) {
		t.Fatalf("MatMul = %v, want %v", c.data, want.data)
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a, _ := New(2, 3)
	b, _ := New(4, 2)
	if _, err := MatMul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("inner dim mismatch: %v", err)
	}
	v, _ := New(3)
	if _, err := MatMul(a, v); !errors.Is(err, ErrShape) {
		t.Fatalf("rank mismatch: %v", err)
	}
}

func TestMatVecKnown(t *testing.T) {
	a := filled(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := filled(t, []float64{1, 0, -1}, 3)
	y, err := MatVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	want := filled(t, []float64{-2, -2}, 2)
	if !equal(y, want) {
		t.Fatalf("MatVec = %v", y.data)
	}
	if _, err := MatVec(a, a); !errors.Is(err, ErrShape) {
		t.Fatalf("rank check: %v", err)
	}
	bad, _ := New(2)
	if _, err := MatVec(a, bad); !errors.Is(err, ErrShape) {
		t.Fatalf("dim check: %v", err)
	}
}

func TestTranspose(t *testing.T) {
	a := filled(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if v := at.data[2*2+1]; v != 6 {
		t.Fatalf("element (2,1) = %v, want 6", v)
	}
	v1, _ := New(3)
	if _, err := Transpose(v1); !errors.Is(err, ErrShape) {
		t.Fatalf("transpose rank-1: %v", err)
	}
}

func TestElementwise(t *testing.T) {
	a := filled(t, []float64{1, 2}, 2)
	b := filled(t, []float64{3, 5}, 2)
	sum, err := Add(a, b)
	if err != nil || sum.data[0] != 4 || sum.data[1] != 7 {
		t.Fatalf("Add = %v, %v", sum, err)
	}
	diff, _ := Sub(a, b)
	if diff.data[0] != -2 {
		t.Fatalf("Sub = %v", diff.data)
	}
	c, _ := New(3)
	if _, err := Add(a, c); !errors.Is(err, ErrShape) {
		t.Fatalf("shape check: %v", err)
	}
}

func TestScale(t *testing.T) {
	a := filled(t, []float64{1, -2, 3}, 3)
	if s := a.Clone().Scale(2); !slices.Equal(s.data, []float64{2, -4, 6}) {
		t.Fatalf("Scale = %v", s.data)
	}
	if a.data[1] != -2 {
		t.Fatal("Scale of a clone mutated its source")
	}
}

func TestAddInPlace(t *testing.T) {
	a := filled(t, []float64{1, 2}, 2)
	b := filled(t, []float64{10, 20}, 2)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.data[1] != 22 {
		t.Fatalf("AddInPlace = %v", a.data)
	}
	c, _ := New(3)
	if err := a.AddInPlace(c); !errors.Is(err, ErrShape) {
		t.Fatalf("shape check: %v", err)
	}
}

func TestRandReproducible(t *testing.T) {
	a, err := Rand(rand.New(rand.NewSource(7)), 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Rand(rand.New(rand.NewSource(7)), 1, 4, 4)
	if !equal(a, b) {
		t.Fatal("Rand not reproducible with same seed")
	}
	for _, v := range a.data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v out of [-1,1)", v)
		}
	}
}

func TestFLOPCounts(t *testing.T) {
	if got := FLOPsMatMul(2, 3, 4); got != 48 {
		t.Fatalf("FLOPsMatMul = %d", got)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
// almostEqual reports element equality within 1e-9, whatever the shapes.
func almostEqual(a, b *Tensor) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestPropertyMatMulTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a, _ := Rand(rng, 2, m, k)
		b, _ := Rand(rng, 2, k, n)
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		abT, _ := Transpose(ab)
		bT, _ := Transpose(b)
		aT, _ := Transpose(a)
		ba, err := MatMul(bT, aT)
		if err != nil {
			return false
		}
		return almostEqual(abT, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul with a one-column matrix equals MatVec.
func TestPropertyMatVecAgreesWithMatMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k := rng.Intn(8)+1, rng.Intn(8)+1
		a, _ := Rand(rng, 2, m, k)
		x, _ := Rand(rng, 2, k)
		xm := filled(t, x.data, k, 1)
		viaMM, err := MatMul(a, xm)
		if err != nil {
			return false
		}
		viaMV, err := MatVec(a, x)
		if err != nil {
			return false
		}
		return almostEqual(viaMM, viaMV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) == A·B + A·C.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		a, _ := Rand(rng, 1, m, k)
		b, _ := Rand(rng, 1, k, n)
		c, _ := Rand(rng, 1, k, n)
		bc, _ := Add(b, c)
		left, err := MatMul(a, bc)
		if err != nil {
			return false
		}
		ab, _ := MatMul(a, b)
		ac, _ := MatMul(a, c)
		right, _ := Add(ab, ac)
		return almostEqual(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refMatMul is the allocating GEMM every kernel is held to, kept here as the
// reference: c starts at zero and c[i][j] takes its terms in ascending k,
// skipping those whose left factor is zero.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	c, _ := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.data[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.data[i*n+j] += av * b.data[kk*n+j]
			}
		}
	}
	return c
}

// sparseRand is Rand with about a third of the entries exactly zero, some of
// them negative zero, so the kernels' zero skip is exercised.
func sparseRand(rng *rand.Rand, shape ...int) *Tensor {
	t, _ := Rand(rng, 3, shape...)
	for i := range t.data {
		switch rng.Intn(6) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// dirty is a destination full of garbage: a kernel must overwrite, not
// accumulate into, what it is handed.
func dirty(m, n int) *Tensor {
	t, _ := New(m, n)
	for i := range t.data {
		t.data[i] = math.NaN()
	}
	return t
}

// filled returns a tensor of the given shape holding data in row-major order.
func filled(t testing.TB, data []float64, shape ...int) *Tensor {
	t.Helper()
	x, err := New(shape...)
	if err != nil || x.Size() != len(data) {
		t.Fatalf("filled: %d values for shape %v: %v", len(data), shape, err)
	}
	copy(x.data, data)
	return x
}

// equal reports exact equality of shape and elements.
func equal(a, b *Tensor) bool {
	return slices.Equal(a.shape, b.shape) && slices.Equal(a.data, b.data)
}

// sameBits is equal that also tells -0 from +0.
func sameBits(a, b *Tensor) bool {
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return equal(a, b)
}

// Property: the destination-passing kernels are bit-identical to the
// reference GEMM over explicit transposes, for every shape down to 1×1 and
// an inner dimension of 1.
func TestPropertyFusedKernelsEqualReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(9)+1, rng.Intn(9)+1, rng.Intn(9)+1
		if seed%5 == 0 {
			k = 1
		}
		if seed%7 == 0 {
			m, n = 1, 1
		}
		a, b := sparseRand(rng, m, k), sparseRand(rng, k, n)
		aT, _ := Transpose(a)
		bT, _ := Transpose(b)
		want := refMatMul(a, b)

		plain, viaA, viaB := dirty(m, n), dirty(m, n), dirty(m, n)
		if MatMulInto(plain, a, b) != nil || MatMulTransAInto(viaA, aT, b) != nil || MatMulTransBInto(viaB, a, bT) != nil {
			return false
		}
		alloc, err := MatMul(a, b)
		return err == nil && sameBits(plain, want) && sameBits(viaA, want) && sameBits(viaB, want) && sameBits(alloc, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntoKernelShapeErrors(t *testing.T) {
	a, _ := New(2, 3)
	b, _ := New(3, 4)
	v, _ := New(3)
	for name, err := range map[string]error{
		"dst shape":   MatMulInto(dirty(2, 3), a, b),
		"inner dims":  MatMulInto(dirty(2, 2), a, a),
		"rank":        MatMulInto(dirty(2, 4), a, v),
		"transA dst":  MatMulTransAInto(dirty(2, 4), a, b),
		"transB dims": MatMulTransBInto(dirty(2, 3), a, b),
		"bias width":  a.AddRowInPlace(b),
		"bias rank":   a.AddRowInPlace(a),
	} {
		if !errors.Is(err, ErrShape) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := MatMulTransAInto(dirty(3, 3), a, a); err != nil { // (3×2)·(2×3)
		t.Fatal(err)
	}
	if err := MatMulTransBInto(dirty(2, 2), a, a); err != nil { // (2×3)·(3×2)
		t.Fatal(err)
	}
}

func TestInPlaceBiasAndActivation(t *testing.T) {
	a := filled(t, []float64{1, -2, 3, -4, 5, -6}, 3, 2)
	bias := filled(t, []float64{10, 20}, 2)
	if err := a.AddRowInPlace(bias); err != nil {
		t.Fatal(err)
	}
	want := filled(t, []float64{11, 18, 13, 16, 15, 14}, 3, 2)
	if !equal(a, want) {
		t.Fatalf("AddRowInPlace = %v", a.data)
	}
	if got := a.ApplyInPlace(math.Sqrt); got != a || a.data[3] != 4 {
		t.Fatalf("ApplyInPlace = %v", a.data)
	}
}

func TestRowRangeIsAView(t *testing.T) {
	a := filled(t, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	v := new(Tensor)
	if err := a.RowRangeInto(v, 1, 3); err != nil {
		t.Fatal(err)
	}
	want := filled(t, []float64{3, 4, 5, 6}, 2, 2)
	if !equal(v, want) {
		t.Fatalf("rows [1,3) = %v %v", v.shape, v.data)
	}
	v.data[0] = 30
	if a.data[2] != 30 {
		t.Fatal("a view must share its parent's storage")
	}
	if cap(v.data) != 4 {
		t.Fatalf("view capacity %d reaches past its rows", cap(v.data))
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.RowRangeInto(v, 2, 4) }); allocs != 0 {
		t.Fatalf("re-pointing a view allocated %v times", allocs)
	}
	if v.data[0] != 5 || v.shape[0] != 2 {
		t.Fatalf("re-pointed view = %v %v", v.shape, v.data)
	}
	for _, r := range [][2]int{{-1, 2}, {2, 5}, {2, 2}, {3, 1}} {
		if err := a.RowRangeInto(new(Tensor), r[0], r[1]); !errors.Is(err, ErrBound) {
			t.Errorf("rows [%d,%d): %v", r[0], r[1], err)
		}
	}
	flat, _ := New(4)
	if err := flat.RowRangeInto(new(Tensor), 0, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("rank-1 rows: %v", err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, _ := Rand(rng, 1, 128, 128)
	y, _ := Rand(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
