// Package tensor implements the dense numeric substrate of the ML/DL engine:
// row-major float64 tensors with destination-passing GEMM kernels (the
// paper's §III-A1 maps deep-learning workloads onto GEMM) and in-place
// elementwise updates. The allocating whole-tensor operations the kernels
// are verified against live with the tests.
package tensor

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Sentinel errors. Only Set returns one; a constructor, a
// destination-passing kernel and an in-place update panic with one instead,
// naming the shapes, as gonum's mat package does: their callers size every
// operand from shapes they have already checked.
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

// New returns a zero-filled tensor of the given shape. It panics with
// ErrShape on an empty shape or a non-positive dimension.
func New(shape ...int) *Tensor {
	own := slices.Clone(shape) // the panic reads the copy: shape stays on its caller's stack
	n := min(len(own), 1)
	for _, d := range own {
		n *= max(d, 0)
	}
	if n <= 0 {
		panic(fmt.Errorf("%w: New(%v)", ErrShape, own))
	}
	return &Tensor{shape: own, data: make([]float64, n)}
}

// Rand returns a tensor with uniform values in [-scale, scale), generated
// from rng for reproducibility. It panics like New.
func Rand(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
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

// The GEMM kernels are destination-passing: the caller owns dst, which must
// already have the product's shape and share no storage with a or b, and the
// kernel overwrites it without allocating; a mismatched shape panics. Every
// output element is summed over the inner dimension in ascending order from
// zero, skipping terms whose left factor is exactly zero, so the three
// kernels agree bit for bit with one another composed with Transpose.

// gemmShape checks dst = op(a) × op(b) and returns the product's m, k, n.
func gemmShape(name string, dst, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if dst.Rank() == 2 && a.Rank() == 2 && b.Rank() == 2 {
		m, k = a.shape[0], a.shape[1]
		if transA {
			m, k = k, m
		}
		k2, n := b.shape[0], b.shape[1]
		if transB {
			k2, n = n, k2
		}
		if k == k2 && dst.shape[0] == m && dst.shape[1] == n {
			return m, k, n
		}
	}
	panic(fmt.Errorf("%w: %s: destination %v, operands %v and %v", ErrShape, name, dst.shape, a.shape, b.shape))
}

// MatMulInto computes dst = A × B (GEMM). A is m×k, B is k×n, dst m×n. The
// inner loops are ordered i-k-j for cache-friendly row-major access.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := gemmShape("MatMulInto", dst, a, b, false, false)
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
}

// MatMulTransAInto computes dst = Aᵀ × B without materialising the
// transpose. A is k×m, B is k×n, dst m×n — the weight gradient of a dense
// layer (activationsᵀ × delta).
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := gemmShape("MatMulTransAInto", dst, a, b, true, false)
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
}

// MatMulTransBInto computes dst = A × Bᵀ without materialising the
// transpose. A is m×k, B is n×k, dst m×n — the delta a dense layer hands to
// the one below it (delta × weightsᵀ).
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := gemmShape("MatMulTransBInto", dst, a, b, false, true)
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
}

// Scale multiplies every element by s in place and returns the receiver.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddInPlace accumulates o, of the receiver's size, into the receiver.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Errorf("%w: AddInPlace: %v onto %v", ErrShape, o.shape, t.shape))
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

// AddRowInPlace adds the rank-1 tensor row to every row of a rank-2 receiver —
// the bias add of a dense layer.
func (t *Tensor) AddRowInPlace(row *Tensor) {
	if t.Rank() != 2 || row.Rank() != 1 || row.shape[0] != t.shape[1] {
		panic(fmt.Errorf("%w: AddRowInPlace: row %v onto %v", ErrShape, row.shape, t.shape))
	}
	cols := t.shape[1]
	for r := 0; r < len(t.data); r += cols {
		trow := t.data[r : r+cols]
		for c, v := range row.data {
			trow[c] += v
		}
	}
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
// clamped to its rows. It panics with ErrShape on a tensor of another rank
// and with ErrBound on an empty or out-of-range row range.
func (t *Tensor) RowRangeInto(v *Tensor, lo, hi int) {
	if t.Rank() != 2 {
		panic(fmt.Errorf("%w: RowRangeInto: rank-2 wanted, got %v", ErrShape, t.shape))
	}
	if lo < 0 || hi > t.shape[0] || lo >= hi {
		panic(fmt.Errorf("%w: RowRangeInto: rows [%d,%d) of %v", ErrBound, lo, hi, t.shape))
	}
	cols := t.shape[1]
	v.shape = append(v.shape[:0], hi-lo, cols)
	v.data = t.data[lo*cols : hi*cols : hi*cols]
}

// FLOPsMatMul returns the floating-point operation count of an m×k by k×n
// GEMM (2·m·k·n), used by the Roofline and LogCA models.
func FLOPsMatMul(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
