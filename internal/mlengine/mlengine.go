// Package mlengine implements the ML/DL engine of the polystore (the
// "Deep Neural Network Engine" of Figure 2 and the Snorkel training loop of
// Figure 3): a feed-forward MLP trained by mini-batch SGD, and k-means
// clustering. All dense math runs on the tensor
// substrate; device-aware entry points charge simulated hardware cost so
// the middleware can offload GEMM to TPU/GPU models (§III-A1).
package mlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"polystorepp/internal/hw"
	"polystorepp/internal/tensor"
)

// Sentinel errors.
var (
	ErrConfig = errors.New("mlengine: bad configuration")
	ErrData   = errors.New("mlengine: bad data")
)

// --- MLP ---

// MLP is a feed-forward network with ReLU hidden layers and a sigmoid
// output, trained with mini-batch SGD for binary classification — the
// "will the patient stay > 5 days" model of Figure 2.
type MLP struct {
	weights []*tensor.Tensor // layer i: [in, out]
	biases  []*tensor.Tensor // layer i: [out]
	sizes   []int
}

// NewMLP builds an MLP with the given layer sizes (input, hidden..., 1).
// Weights are Xavier-initialized from rng. The sizes are checked here, once:
// every tensor of the model and of its workspaces is shaped from them, so no
// pass over a model can meet a mismatched shape.
func NewMLP(rng *rand.Rand, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output sizes", ErrConfig)
	}
	if sizes[len(sizes)-1] != 1 {
		return nil, fmt.Errorf("%w: binary MLP needs output size 1, got %d", ErrConfig, sizes[len(sizes)-1])
	}
	if n := slices.Min(sizes); n <= 0 {
		return nil, fmt.Errorf("%w: layer of %d units", ErrConfig, n)
	}
	m := &MLP{sizes: slices.Clone(sizes)}
	for i := 0; i+1 < len(sizes); i++ {
		scale := math.Sqrt(6.0 / float64(sizes[i]+sizes[i+1]))
		m.weights = append(m.weights, tensor.Rand(rng, scale, sizes[i], sizes[i+1]))
		m.biases = append(m.biases, tensor.New(sizes[i+1]))
	}
	return m, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// relu is math.Max(0, v) in place: -0 and negatives become +0, and NaN
// stays NaN (keeping its payload, where math.Max answers the canonical one).
func relu(d []float64) {
	for i, v := range d {
		if v <= 0 {
			d[i] = 0
		}
	}
}

// Workspace holds every buffer a forward or training pass writes, so a step
// allocates nothing. It belongs to one goroutine at a time and is never part
// of the model: one *MLP can feed concurrent predict nodes of a wide plan.
type Workspace struct {
	sizes []int // of the model it was built for
	rows  int   // how many rows act and delta span right now
	// actBuf[i] and deltaBuf[i] are full-size storage for layer i's output
	// and its loss gradient; act[i+1] and delta[i] view their first rows
	// rows, and act[0] is the input.
	actBuf, deltaBuf []*tensor.Tensor
	act, delta       []*tensor.Tensor
	gradW, gradB     []*tensor.Tensor
	// x and y are full-size storage for the input a Fill writes (and, when
	// training, its labels); xv and yv view the rows of the current step.
	x, y   *tensor.Tensor
	xv, yv tensor.Tensor
}

// NewWorkspace returns a training workspace for mini-batches of up to rows
// examples. Its single owner hands it to every TrainBatch call.
func (m *MLP) NewWorkspace(rows int) (*Workspace, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("%w: workspace of %d rows", ErrConfig, rows)
	}
	return newWorkspace(m.sizes, rows, true), nil
}

// newWorkspace shapes every buffer from a built model's sizes and a positive
// row count.
func newWorkspace(sizes []int, rows int, train bool) *Workspace {
	ws := &Workspace{sizes: sizes, act: make([]*tensor.Tensor, len(sizes)), x: tensor.New(rows, sizes[0])}
	if train {
		ws.y = tensor.New(rows, 1)
	}
	for i := 0; i+1 < len(sizes); i++ {
		ws.actBuf = append(ws.actBuf, tensor.New(rows, sizes[i+1]))
		ws.act[i+1] = new(tensor.Tensor)
		if train {
			ws.deltaBuf = append(ws.deltaBuf, tensor.New(rows, sizes[i+1]))
			ws.delta = append(ws.delta, new(tensor.Tensor))
			ws.gradW = append(ws.gradW, tensor.New(sizes[i], sizes[i+1]))
			ws.gradB = append(ws.gradB, tensor.New(sizes[i+1]))
		}
	}
	ws.setRows(rows)
	return ws
}

// setRows points the row-shaped views at the first n rows of their buffers,
// n at most the workspace's rows: the last mini-batch of an epoch, or block
// of a prediction, may be short.
func (ws *Workspace) setRows(n int) {
	if n == ws.rows {
		return
	}
	for i, buf := range ws.actBuf {
		buf.RowRangeInto(ws.act[i+1], 0, n)
		if ws.delta != nil {
			ws.deltaBuf[i].RowRangeInto(ws.delta[i], 0, n)
		}
	}
	ws.rows = n
}

// forward leaves layer i's activation over x in ws.act[i+1]. Only the
// activations are kept: ReLU's derivative gate reads them, since a == 0
// exactly where the pre-activation was <= 0.
func (m *MLP) forward(ws *Workspace, x *tensor.Tensor) {
	ws.setRows(x.Dim(0))
	ws.act[0] = x
	for i, w := range m.weights {
		a := ws.act[i+1]
		tensor.MatMulInto(a, ws.act[i], w)
		a.AddRowInPlace(m.biases[i])
		if i == len(m.weights)-1 {
			a.ApplyInPlace(sigmoid)
		} else {
			relu(a.Data())
		}
	}
}

// Fill writes rows [lo, hi) of a model input into dst, row-major, one row
// of the input's width after another. It lets the caller's own storage feed
// the network a block at a time: no input tensor of every row is built.
type Fill func(dst []float64, lo, hi int)

// stage points the workspace's input view (and label view, when it has one)
// at the first n rows of their buffers and fills them with rows [lo, lo+n).
func (ws *Workspace) stage(x, y Fill, lo, n int) {
	ws.x.RowRangeInto(&ws.xv, 0, n)
	x(ws.xv.Data(), lo, lo+n)
	if y != nil {
		ws.y.RowRangeInto(&ws.yv, 0, n)
		y(ws.yv.Data(), lo, lo+n)
	}
}

// predictBlock is how many rows PredictFill pushes through the network at a
// time, and predictPool holds workspaces of that many rows: a prediction
// allocates its output and nothing else.
const predictBlock = 256

var predictPool sync.Pool // of *Workspace

// PredictFill returns P(label=1) per row of n rows of width features, which
// fill writes into the workspace a block of rows at a time. It is safe to
// call from several goroutines on one model.
func (m *MLP) PredictFill(n, width int, fill Fill) (*tensor.Tensor, error) {
	if n <= 0 || width != m.sizes[0] {
		return nil, fmt.Errorf("%w: input shape %v, want [_, %d]", ErrData, []int{n, width}, m.sizes[0])
	}
	out := tensor.New(n, 1)
	ws, _ := predictPool.Get().(*Workspace)
	if ws == nil || !slices.Equal(ws.sizes, m.sizes) {
		ws = newWorkspace(m.sizes, predictBlock, false)
	}
	defer predictPool.Put(ws)
	for lo := 0; lo < n; lo += predictBlock {
		hi := min(lo+predictBlock, n)
		ws.stage(fill, nil, lo, hi-lo)
		m.forward(ws, &ws.xv)
		copy(out.Data()[lo:hi], ws.act[len(ws.act)-1].Data())
	}
	return out, nil
}

// trainPool holds the workspaces Fit trains in, keyed like predictPool by the
// model's sizes; one serves any mini-batch up to its rows.
var trainPool sync.Pool // of *Workspace

// Fit trains the model by mini-batch SGD: epochs passes over n examples in
// row order, batch rows a step (the last step of a pass may be short), each
// step as TrainBatch takes it. x fills a step's features and y its labels
// into the workspace, so no tensor of all n rows is built, and the workspace
// itself is borrowed. stop is asked before every pass; its error ends
// training (a canceled request). batch must be positive.
func (m *MLP) Fit(n, batch, epochs int, lr float64, x, y Fill, stop func() error) error {
	ws, _ := trainPool.Get().(*Workspace)
	if ws == nil || !slices.Equal(ws.sizes, m.sizes) || ws.x.Dim(0) < batch {
		ws = newWorkspace(m.sizes, batch, true)
	}
	defer trainPool.Put(ws)
	for e := 0; e < epochs; e++ {
		if err := stop(); err != nil {
			return err
		}
		for lo := 0; lo < n; lo += batch {
			ws.stage(x, y, lo, min(batch, n-lo))
			m.step(ws, &ws.xv, &ws.yv, lr)
		}
	}
	return nil
}

// TrainBatch performs one SGD step on (x, y) with learning rate lr, out of a
// workspace from NewWorkspace, and returns the mean binary cross-entropy loss
// before the step. x must be the model's input width and at most the
// workspace's rows, y one label per row of x.
func (m *MLP) TrainBatch(ws *Workspace, x, y *tensor.Tensor, lr float64) (float64, error) {
	n := x.Dim(0)
	if x.Rank() != 2 || x.Dim(1) != m.sizes[0] || n > ws.x.Dim(0) {
		return 0, fmt.Errorf("%w: input shape %v, want at most [%d,%d]", ErrData, x.Shape(), ws.x.Dim(0), m.sizes[0])
	}
	if y.Rank() != 2 || y.Dim(0) != n || y.Dim(1) != 1 {
		return 0, fmt.Errorf("%w: labels shape %v, want [%d,1]", ErrData, y.Shape(), n)
	}
	m.step(ws, x, y, lr) // which leaves in ws the predictions it started from
	var loss float64
	for i, p := range ws.act[len(ws.act)-1].Data() {
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		loss += -(y.Data()[i]*math.Log(p) + (1-y.Data()[i])*math.Log(1-p))
	}
	return loss / float64(n), nil
}

// step is TrainBatch on operands shaped for its model and workspace, less the loss.
func (m *MLP) step(ws *Workspace, x, y *tensor.Tensor, lr float64) {
	n := x.Dim(0)
	m.forward(ws, x)
	last := len(m.weights) - 1
	// Output delta (sigmoid + BCE gives delta = pred - y).
	pd, yd, dd := ws.act[last+1].Data(), y.Data(), ws.delta[last].Data()
	for i := range pd {
		dd[i] = pd[i] - yd[i]
	}

	// Backprop.
	for layer := last; layer >= 0; layer-- {
		delta, gradW, gradB := ws.delta[layer], ws.gradW[layer], ws.gradB[layer]
		tensor.MatMulTransAInto(gradW, ws.act[layer], delta)
		gradW.Scale(1 / float64(n))
		// Bias gradient: column means of delta.
		cols := delta.Dim(1)
		dd, gb := delta.Data(), gradB.Data()
		clear(gb)
		for r := 0; r < n; r++ {
			for c := 0; c < cols; c++ {
				gb[c] += dd[r*cols+c]
			}
		}
		for c := range gb {
			gb[c] /= float64(n)
		}
		if layer > 0 {
			next := ws.delta[layer-1]
			tensor.MatMulTransBInto(next, delta, m.weights[layer])
			// ReLU derivative gate.
			ad, nd := ws.act[layer].Data(), next.Data()
			for i := range nd {
				if ad[i] <= 0 {
					nd[i] = 0
				}
			}
		}
		m.weights[layer].AddInPlace(gradW.Scale(-lr))
		m.biases[layer].AddInPlace(gradB.Scale(-lr))
	}
}

// AppendGEMMs appends the shape of every GEMM one pass of the model over
// rows examples runs, the shapes TPU/GPU cost is charged from: per layer the
// forward GEMM and, when train is set, the two backward GEMMs of an SGD step
// beside it, charged at the forward's shape.
func (m *MLP) AppendGEMMs(dst []hw.Work, rows int, train bool) []hw.Work {
	for i := 0; i+1 < len(m.sizes); i++ {
		in, out := m.sizes[i], m.sizes[i+1]
		w := hw.Work{M: rows, K: in, N: out, Bytes: int64(rows*in+in*out) * 8}
		if dst = append(dst, w); train {
			dst = append(dst, w, w)
		}
	}
	return dst
}

// --- k-means ---

// KMeansResult is the outcome of Lloyd's algorithm.
type KMeansResult struct {
	Assign     []int // len n
	Iterations int
	Inertia    float64 // sum of squared distances to assigned centroid
	// AssignCost is the simulated cost of the assignment phases when run on
	// a device (zero for plain KMeans).
	AssignCost hw.Cost
}

// KMeans clusters points (shape [n, dim]) into k clusters, initializing
// centroids from rng, until assignments stabilize or maxIter.
func KMeans(rng *rand.Rand, points *tensor.Tensor, k, maxIter int) (*KMeansResult, error) {
	return kmeansOn(rng, points, k, maxIter, nil, 0)
}

// KMeansOn is KMeans with the assignment phase charged to the device in the
// given mode — the Figure 7 OptiML scenario lowered to CPU/GPU/FPGA/CGRA.
func KMeansOn(rng *rand.Rand, points *tensor.Tensor, k, maxIter int, dev *hw.Device, mode hw.Mode) (*KMeansResult, error) {
	return kmeansOn(rng, points, k, maxIter, dev, mode)
}

func kmeansOn(rng *rand.Rand, points *tensor.Tensor, k, maxIter int, dev *hw.Device, mode hw.Mode) (*KMeansResult, error) {
	if points.Rank() != 2 {
		return nil, fmt.Errorf("%w: points must be [n, dim]", ErrData)
	}
	n, dim := points.Dim(0), points.Dim(1)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: k=%d for n=%d", ErrConfig, k, n)
	}
	// Initialize centroids by sampling distinct points.
	perm := rng.Perm(n)[:k]
	cents := tensor.New(k, dim)
	pd, cd := points.Data(), cents.Data()
	for i, p := range perm {
		copy(cd[i*dim:(i+1)*dim], pd[p*dim:(p+1)*dim])
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var total hw.Cost
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		// Assignment phase (the offloadable kernel).
		if dev != nil {
			w := hw.Work{Items: int64(n), K: dim, N: k, Bytes: int64(n*dim) * 8}
			var c hw.Cost
			var err error
			if dev.Kind == hw.CPU {
				c, err = dev.HostCost(hw.KKMeansAssign, w)
			} else {
				c, err = dev.Offload(mode, hw.KKMeansAssign, w, int64(n)*8)
			}
			if err != nil {
				return nil, err
			}
			total = total.AddSeq(c)
		}
		for i := 0; i < n; i++ {
			best, bestD := -1, math.Inf(1)
			row := pd[i*dim : (i+1)*dim]
			for c := 0; c < k; c++ {
				cRow := cd[c*dim : (c+1)*dim]
				var d2 float64
				for j := range row {
					diff := row[j] - cRow[j]
					d2 += diff * diff
				}
				if d2 < bestD {
					best, bestD = c, d2
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Update phase.
		counts := make([]int, k)
		sums := make([]float64, k*dim)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for j := 0; j < dim; j++ {
				sums[c*dim+j] += pd[i*dim+j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // keep empty centroid where it was
			}
			for j := 0; j < dim; j++ {
				cd[c*dim+j] = sums[c*dim+j] / float64(counts[c])
			}
		}
	}
	var inertia float64
	for i := 0; i < n; i++ {
		c := assign[i]
		for j := 0; j < dim; j++ {
			diff := pd[i*dim+j] - cd[c*dim+j]
			inertia += diff * diff
		}
	}
	return &KMeansResult{Assign: assign, Iterations: iters + 1, Inertia: inertia, AssignCost: total}, nil
}
