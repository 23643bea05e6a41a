package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, shape := range [][]int{nil, {2, 0}, {-1}, {3, -2}} {
		want := fmt.Sprintf("tensor: shape mismatch: New(%v)", shape)
		if err := panicOf(func() { New(shape...) }); !errors.Is(err, ErrShape) || err.Error() != want {
			t.Errorf("New(%v) panicked with %v, want %q", shape, err, want)
		}
	}
	if err := panicOf(func() { Rand(rand.New(rand.NewSource(1)), 1, 0) }); !errors.Is(err, ErrShape) {
		t.Errorf("Rand of shape [0] panicked with %v", err)
	}
	if tt := New(2, 3); tt.Size() != 6 || tt.Rank() != 2 {
		t.Fatalf("New(2,3): size=%d rank=%d", tt.Size(), tt.Rank())
	}
}

// panicOf runs f and returns the error it panicked with, nil if it returned.
func panicOf(f func()) (err error) {
	defer func() { err, _ = recover().(error) }()
	f()
	return nil
}

func TestAtSetBounds(t *testing.T) {
	a := New(2, 2)
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
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("inner dim mismatch: %v", err)
	}
	v := New(3)
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
	bad := New(2)
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
	v1 := New(3)
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
	c := New(3)
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
	a.AddInPlace(b)
	if a.data[1] != 22 {
		t.Fatalf("AddInPlace = %v", a.data)
	}
}

func TestRandReproducible(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(7)), 1, 4, 4)
	b := Rand(rand.New(rand.NewSource(7)), 1, 4, 4)
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
		a := Rand(rng, 2, m, k)
		b := Rand(rng, 2, k, n)
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
		a := Rand(rng, 2, m, k)
		x := Rand(rng, 2, k)
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
		a := Rand(rng, 1, m, k)
		b := Rand(rng, 1, k, n)
		c := Rand(rng, 1, k, n)
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
	c := New(m, n)
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
	t := Rand(rng, 3, shape...)
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
	t := New(m, n)
	for i := range t.data {
		t.data[i] = math.NaN()
	}
	return t
}

// filled returns a tensor of the given shape holding data in row-major order.
func filled(t testing.TB, data []float64, shape ...int) *Tensor {
	t.Helper()
	x := New(shape...)
	if x.Size() != len(data) {
		t.Fatalf("filled: %d values for shape %v", len(data), shape)
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
		MatMulInto(plain, a, b)
		MatMulTransAInto(viaA, aT, b)
		MatMulTransBInto(viaB, a, bT)
		alloc, err := MatMul(a, b)
		return err == nil && sameBits(plain, want) && sameBits(viaA, want) && sameBits(viaB, want) && sameBits(alloc, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIntoKernelShapeErrors: every kernel that returns no error — the
// destination-passing GEMMs, the in-place adds and the row view — panics on
// a mismatched shape with an ErrShape (ErrBound for a row range) naming
// every shape involved.
func TestIntoKernelShapeErrors(t *testing.T) {
	a, b, v := New(2, 3), New(3, 4), New(3)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"dst shape", func() { MatMulInto(dirty(2, 3), a, b) }, "MatMulInto: destination [2 3], operands [2 3] and [3 4]"},
		{"inner dims", func() { MatMulInto(dirty(2, 2), a, a) }, "MatMulInto: destination [2 2], operands [2 3] and [2 3]"},
		{"rank", func() { MatMulInto(dirty(2, 4), a, v) }, "MatMulInto: destination [2 4], operands [2 3] and [3]"},
		{"transA dst", func() { MatMulTransAInto(dirty(2, 4), a, b) }, "MatMulTransAInto: destination [2 4], operands [2 3] and [3 4]"},
		{"transB dims", func() { MatMulTransBInto(dirty(2, 3), a, b) }, "MatMulTransBInto: destination [2 3], operands [2 3] and [3 4]"},
		{"bias width", func() { a.AddRowInPlace(b) }, "AddRowInPlace: row [3 4] onto [2 3]"},
		{"bias rank", func() { a.AddRowInPlace(a) }, "AddRowInPlace: row [2 3] onto [2 3]"},
		{"add size", func() { a.AddInPlace(v) }, "AddInPlace: [3] onto [2 3]"},
		{"view rank", func() { v.RowRangeInto(new(Tensor), 0, 1) }, "RowRangeInto: rank-2 wanted, got [3]"},
	} {
		err := panicOf(tc.f)
		if want := ErrShape.Error() + ": " + tc.want; !errors.Is(err, ErrShape) || err.Error() != want {
			t.Errorf("%s: panicked with %v, want %q", tc.name, err, want)
		}
	}
	for _, r := range [][2]int{{-1, 2}, {2, 3}, {1, 1}, {2, 1}} {
		err := panicOf(func() { a.RowRangeInto(new(Tensor), r[0], r[1]) })
		if want := fmt.Sprintf("%v: RowRangeInto: rows [%d,%d) of [2 3]", ErrBound, r[0], r[1]); !errors.Is(err, ErrBound) || err.Error() != want {
			t.Errorf("rows [%d,%d): panicked with %v, want %q", r[0], r[1], err, want)
		}
	}
	MatMulTransAInto(dirty(3, 3), a, a) // (3×2)·(2×3)
	MatMulTransBInto(dirty(2, 2), a, a) // (2×3)·(3×2)
}

func TestInPlaceBiasAndActivation(t *testing.T) {
	a := filled(t, []float64{1, -2, 3, -4, 5, -6}, 3, 2)
	bias := filled(t, []float64{10, 20}, 2)
	a.AddRowInPlace(bias)
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
	a.RowRangeInto(v, 1, 3)
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
	if allocs := testing.AllocsPerRun(100, func() { a.RowRangeInto(v, 2, 4) }); allocs != 0 {
		t.Fatalf("re-pointing a view allocated %v times", allocs)
	}
	if v.data[0] != 5 || v.shape[0] != 2 {
		t.Fatalf("re-pointed view = %v %v", v.shape, v.data)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, 1, 128, 128)
	y := Rand(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
