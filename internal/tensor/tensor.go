// Package tensor implements the dense numeric substrate shared by the ML/DL
// engine, the array store, and the TPU/GPU kernel simulators: row-major
// float64 tensors with GEMM/GEMV, elementwise kernels and reductions.
//
// The paper (§III-A1) maps deep-learning workloads onto GEMM and GEMV, so
// these two kernels are the contract the accelerator simulators implement
// and are verified against.
package tensor

import (
	"errors"
	"fmt"
	"math/rand"
)

// Sentinel errors.
var (
	ErrShape = errors.New("tensor: shape mismatch")
	ErrBound = errors.New("tensor: index out of bounds")
)

// Tensor is a dense row-major float64 tensor. The zero value is an empty
// scalar-less tensor; construct with New.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor of the given shape. A nil/empty shape is
// rejected, as are non-positive dimensions.
func New(shape ...int) (*Tensor, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("%w: empty shape", ErrShape)
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: dimension %d", ErrShape, d)
		}
		n *= d
	}
	own := make([]int, len(shape))
	copy(own, shape)
	return &Tensor{shape: own, data: make([]float64, n)}, nil
}

// Rand returns a tensor with uniform values in [-scale, scale), generated
// from rng for reproducibility.
func Rand(rng *rand.Rand, scale float64, shape ...int) (*Tensor, error) {
	t, err := New(shape...)
	if err != nil {
		return nil, err
	}
	for i := range t.data {
		t.data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t, nil
}

// Shape returns a copy of the tensor shape.
func (t *Tensor) Shape() []int {
	out := make([]int, len(t.shape))
	copy(out, t.shape)
	return out
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data exposes the backing slice (aliased, not copied) for kernels.
func (t *Tensor) Data() []float64 { return t.data }

// Set stores v at the given indices.
func (t *Tensor) Set(v float64, idx ...int) error {
	off, err := t.offset(idx)
	if err != nil {
		return err
	}
	t.data[off] = v
	return nil
}

func (t *Tensor) offset(idx []int) (int, error) {
	if len(idx) != len(t.shape) {
		return 0, fmt.Errorf("%w: %d indices for rank %d", ErrBound, len(idx), len(t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			return 0, fmt.Errorf("%w: index %d out of [0,%d)", ErrBound, x, t.shape[i])
		}
		off = off*t.shape[i] + x
	}
	return off, nil
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{shape: t.Shape(), data: make([]float64, len(t.data))}
	copy(out.data, t.data)
	return out
}

// The GEMM kernels are destination-passing: the caller owns dst, which must
// already have the product's shape and share no storage with a or b, and the
// kernel overwrites it without allocating. Every output element is summed
// over the inner dimension in ascending order from zero, skipping terms whose
// left factor is exactly zero, so the three kernels agree bit for bit with
// one another composed with Transpose.

// gemmShape checks dst = op(a) × op(b) and returns the product's m, k, n.
func gemmShape(dst, a, b *Tensor, transA, transB bool) (m, k, n int, err error) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("%w: GEMM wants rank-2, got %v = %v × %v", ErrShape, dst.shape, a.shape, b.shape)
	}
	m, k = a.shape[0], a.shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		return 0, 0, 0, fmt.Errorf("%w: inner dims %d vs %d", ErrShape, k, k2)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		return 0, 0, 0, fmt.Errorf("%w: destination %v for a %d×%d product", ErrShape, dst.shape, m, n)
	}
	return m, k, n, nil
}

// MatMulInto computes dst = A × B (GEMM). A is m×k, B is k×n, dst m×n. The
// inner loops are ordered i-k-j for cache-friendly row-major access.
func MatMulInto(dst, a, b *Tensor) error {
	m, k, n, err := gemmShape(dst, a, b, false, false)
	if err != nil {
		return err
	}
	ad, bd, cd := a.data, b.data, dst.data
	clear(cd)
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[kk*n : (kk+1)*n]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// MatMulTransAInto computes dst = Aᵀ × B without materialising the
// transpose. A is k×m, B is k×n, dst m×n — the weight gradient of a dense
// layer (activationsᵀ × delta).
func MatMulTransAInto(dst, a, b *Tensor) error {
	m, k, n, err := gemmShape(dst, a, b, true, false)
	if err != nil {
		return err
	}
	ad, bd, cd := a.data, b.data, dst.data
	clear(cd)
	for kk := 0; kk < k; kk++ {
		brow := bd[kk*n : (kk+1)*n]
		for i, av := range ad[kk*m : (kk+1)*m] {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// MatMulTransBInto computes dst = A × Bᵀ without materialising the
// transpose. A is m×k, B is n×k, dst m×n — the delta a dense layer hands to
// the one below it (delta × weightsᵀ).
func MatMulTransBInto(dst, a, b *Tensor) error {
	m, k, n, err := gemmShape(dst, a, b, false, true)
	if err != nil {
		return err
	}
	ad, bd, cd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var acc float64
			for kk, av := range arow {
				if av != 0 {
					acc += av * brow[kk]
				}
			}
			cd[i*n+j] = acc
		}
	}
	return nil
}

// MatMul computes C = A × B for 2-D tensors into a new tensor.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: MatMul wants rank-2, got %v × %v", ErrShape, a.shape, b.shape)
	}
	c, err := New(a.shape[0], b.shape[1])
	if err != nil {
		return nil, err
	}
	if err := MatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatVec computes y = A × x for a 2-D tensor A (m×k) and 1-D x (k) — GEMV.
func MatVec(a, x *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || x.Rank() != 1 {
		return nil, fmt.Errorf("%w: MatVec wants (2,1) ranks, got (%d,%d)", ErrShape, a.Rank(), x.Rank())
	}
	m, k := a.shape[0], a.shape[1]
	if k != x.shape[0] {
		return nil, fmt.Errorf("%w: inner dims %d vs %d", ErrShape, k, x.shape[0])
	}
	y, err := New(m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		var acc float64
		for j, v := range row {
			acc += v * x.data[j]
		}
		y.data[i] = acc
	}
	return y, nil
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("%w: Transpose wants rank-2, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out, err := New(n, m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

// Add computes elementwise a + b into a new tensor.
func Add(a, b *Tensor) (*Tensor, error) {
	return zip(a, b, func(x, y float64) float64 { return x + y })
}

// Sub computes elementwise a - b into a new tensor.
func Sub(a, b *Tensor) (*Tensor, error) {
	return zip(a, b, func(x, y float64) float64 { return x - y })
}

func zip(a, b *Tensor, f func(x, y float64) float64) (*Tensor, error) {
	if len(a.data) != len(b.data) {
		return nil, fmt.Errorf("%w: %v vs %v", ErrShape, a.shape, b.shape)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out, nil
}

// Scale multiplies every element by s in place and returns the receiver.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddInPlace accumulates o into the receiver.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: %v vs %v", ErrShape, t.shape, o.shape)
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return nil
}

// AddRowInPlace adds the rank-1 tensor row to every row of a rank-2 receiver —
// the bias add of a dense layer.
func (t *Tensor) AddRowInPlace(row *Tensor) error {
	if t.Rank() != 2 || row.Rank() != 1 || row.shape[0] != t.shape[1] {
		return fmt.Errorf("%w: row %v onto %v", ErrShape, row.shape, t.shape)
	}
	cols := t.shape[1]
	for r := 0; r < len(t.data); r += cols {
		trow := t.data[r : r+cols]
		for c, v := range row.data {
			trow[c] += v
		}
	}
	return nil
}

// ApplyInPlace maps f over every element in place and returns the receiver.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// RowRangeInto makes v a view of rows [lo, hi) of a rank-2 tensor: v shares
// t's storage, so writes through either are seen by both. v's own header is
// reused, so re-pointing a view allocates nothing; the view's capacity is
// clamped to its rows.
func (t *Tensor) RowRangeInto(v *Tensor, lo, hi int) error {
	if t.Rank() != 2 {
		return fmt.Errorf("%w: RowRange wants rank-2", ErrShape)
	}
	if lo < 0 || hi > t.shape[0] || lo >= hi {
		return fmt.Errorf("%w: rows [%d,%d) of %d", ErrBound, lo, hi, t.shape[0])
	}
	cols := t.shape[1]
	v.shape = append(v.shape[:0], hi-lo, cols)
	v.data = t.data[lo*cols : hi*cols : hi*cols]
	return nil
}

// FLOPsMatMul returns the floating-point operation count of an m×k by k×n
// GEMM (2·m·k·n), used by the Roofline and LogCA models.
func FLOPsMatMul(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
