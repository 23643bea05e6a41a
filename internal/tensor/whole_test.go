package tensor

import "fmt"

// The allocating whole-tensor operations, the plain definitions the
// destination-passing kernels and their properties are checked against.

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{shape: t.Shape(), data: make([]float64, len(t.data))}
	copy(out.data, t.data)
	return out
}

// MatMul computes C = A × B for 2-D tensors into a new tensor.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("%w: MatMul %v × %v", ErrShape, a.shape, b.shape)
	}
	c := New(a.shape[0], b.shape[1])
	MatMulInto(c, a, b)
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
	y := New(m)
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
	out := New(n, m)
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
