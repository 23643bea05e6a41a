package mlengine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"polystorepp/internal/hw"
	"polystorepp/internal/tensor"
)

// synthBinary builds a linearly-separable-ish binary dataset: label = 1 when
// the sum of the first two features exceeds 0.
func synthBinary(rng *rand.Rand, n, dim int) (x, y *tensor.Tensor) {
	x = tensor.Rand(rng, 1, n, dim)
	y = tensor.New(n, 1)
	xd, yd := x.Data(), y.Data()
	for i := 0; i < n; i++ {
		if xd[i*dim]+xd[i*dim+1] > 0 {
			yd[i] = 1
		}
	}
	return x, y
}

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(rng, 4); !errors.Is(err, ErrConfig) {
		t.Fatalf("single layer: %v", err)
	}
	if _, err := NewMLP(rng, 4, 3); !errors.Is(err, ErrConfig) {
		t.Fatalf("non-unit output: %v", err)
	}
	if _, err := NewMLP(rng, 4, 0, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty hidden layer: %v", err)
	}
	if _, err := NewMLP(rng, 4, 8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMLPTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := synthBinary(rng, 256, 6)
	m, err := NewMLP(rng, 6, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := m.NewWorkspace(256)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.TrainBatch(ws, x, y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < 60; e++ {
		last, err = m.TrainBatch(ws, x, y, 0.5)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
	pred, err := predict(m, x)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred.Data() {
		if (p >= 0.5) == (y.Data()[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred.Data())); acc < 0.8 {
		t.Fatalf("train accuracy = %v, want >= 0.8", acc)
	}
}

// predict runs PredictFill over the rows of the rank-2 x.
func predict(m *MLP, x *tensor.Tensor) (*tensor.Tensor, error) {
	w, d := x.Dim(1), x.Data()
	return m.PredictFill(x.Dim(0), w, func(dst []float64, lo, hi int) { copy(dst, d[lo*w:hi*w]) })
}

func TestMLPPredictValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewMLP(rng, 4, 1)
	bad := tensor.New(3, 5)
	if _, err := predict(m, bad); !errors.Is(err, ErrData) {
		t.Fatalf("wrong dim: %v", err)
	}
	if _, err := m.PredictFill(0, 4, nil); !errors.Is(err, ErrData) {
		t.Fatalf("no rows: %v", err)
	}
	x := tensor.New(3, 4)
	p, err := predict(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of [0,1]", v)
		}
	}
}

func TestMLPTrainBatchLabelShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, _ := NewMLP(rng, 4, 1)
	x := tensor.New(8, 4)
	ws, err := m.NewWorkspace(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []*tensor.Tensor{tensor.New(8, 2), tensor.New(7, 1), tensor.New(8)} {
		if _, err := m.TrainBatch(ws, x, y, 0.1); !errors.Is(err, ErrData) {
			t.Fatalf("labels %v for 8 rows: %v", y.Shape(), err)
		}
	}
	y := tensor.New(8, 1)
	if _, err := m.TrainBatch(ws, tensor.New(8, 3), y, 0.1); !errors.Is(err, ErrData) {
		t.Fatalf("3 features into a 4-feature model: %v", err)
	}
	small, err := m.NewWorkspace(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(small, x, y, 0.1); !errors.Is(err, ErrData) {
		t.Fatalf("8 rows through a 4-row workspace: %v", err)
	}
	if _, err := m.NewWorkspace(0); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty workspace: %v", err)
	}
}

func TestAppendGEMMs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewMLP(rng, 10, 20, 1)
	var inline [6]hw.Work
	works := m.AppendGEMMs(inline[:0], 100, true)
	if len(works) != 6 || &works[0] != &inline[0] { // 2 layers x 3 GEMMs, in the caller's storage
		t.Fatalf("works = %d", len(works))
	}
	for i, w := range works {
		if k, n := []int{10, 20}[i/3], []int{20, 1}[i/3]; w.M != 100 || w.K != k || w.N != n || w.Bytes != int64(100*k+k*n)*8 {
			t.Fatalf("GEMM %d is %+v", i, w)
		}
		if w.FLOPs() == 0 {
			t.Fatal("no FLOPs in work")
		}
	}
	if fwd := m.AppendGEMMs(works, 7, false); len(fwd) != 8 || fwd[6].M != 7 || fwd[6].K != 10 || fwd[7].N != 1 {
		t.Fatalf("forward GEMMs appended: %+v", fwd[6:])
	}
}

// clusteredPoints samples n points around k well-separated centers.
func clusteredPoints(rng *rand.Rand, n, k, dim int) *tensor.Tensor {
	centers := tensor.New(k, dim)
	cd := centers.Data()
	for i := range cd {
		cd[i] = float64(rng.Intn(20)) * 10
	}
	pts := tensor.New(n, dim)
	pd := pts.Data()
	for i := 0; i < n; i++ {
		c := i % k
		for j := 0; j < dim; j++ {
			pd[i*dim+j] = cd[c*dim+j] + rng.NormFloat64()*0.5
		}
	}
	return pts
}

func TestKMeansConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPoints(rng, 300, 3, 4)
	res, err := KMeans(rng, pts, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 50 {
		t.Fatalf("did not converge: %d iterations", res.Iterations)
	}
	if len(res.Assign) != 300 {
		t.Fatalf("assignments = %d", len(res.Assign))
	}
	// Tight clusters: inertia per point should be small relative to the
	// inter-center distances (~100+).
	if res.Inertia/300 > 10 {
		t.Fatalf("inertia per point = %v", res.Inertia/300)
	}
}

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := tensor.New(10, 2)
	if _, err := KMeans(rng, pts, 0, 5); !errors.Is(err, ErrConfig) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := KMeans(rng, pts, 11, 5); !errors.Is(err, ErrConfig) {
		t.Fatalf("k>n: %v", err)
	}
	vec := tensor.New(10)
	if _, err := KMeans(rng, vec, 2, 5); !errors.Is(err, ErrData) {
		t.Fatalf("rank-1: %v", err)
	}
}

func TestKMeansOnDeviceChargesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := clusteredPoints(rng, 200, 2, 3)
	cpuRes, err := KMeansOn(rand.New(rand.NewSource(1)), pts, 2, 30, hw.NewHostCPU(), hw.Standalone)
	if err != nil {
		t.Fatal(err)
	}
	fpgaRes, err := KMeansOn(rand.New(rand.NewSource(1)), pts, 2, 30, hw.NewFPGA(), hw.Coprocessor)
	if err != nil {
		t.Fatal(err)
	}
	if cpuRes.AssignCost.Seconds <= 0 || fpgaRes.AssignCost.Seconds <= 0 {
		t.Fatal("costs not charged")
	}
	// Same seed, same data: identical clustering regardless of device.
	if cpuRes.Inertia != fpgaRes.Inertia {
		t.Fatalf("device changed results: %v vs %v", cpuRes.Inertia, fpgaRes.Inertia)
	}
}

func TestKMeansInertiaNonincreasingWithIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := clusteredPoints(rng, 150, 3, 3)
	var prev float64 = math.Inf(1)
	for _, iters := range []int{1, 3, 10, 30} {
		res, err := KMeans(rand.New(rand.NewSource(42)), pts, 3, iters)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.0001 {
			t.Fatalf("inertia rose with more iterations: %v -> %v", prev, res.Inertia)
		}
		prev = res.Inertia
	}
}
