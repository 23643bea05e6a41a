//go:build !race

package mlengine

import (
	"math/rand"
	"testing"

	"polystorepp/internal/tensor"
)

// A training step runs entirely out of its workspace, full batch or short,
// and a prediction allocates only the tensor it returns (header, shape,
// data): the allocating path took ~12 tensors per step and two N×hidden
// tensors per prediction.
func TestStepAndPredictAllocBudgets(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(1)), 64, 7)
	m, _ := NewMLP(rand.New(rand.NewSource(2)), 7, 16, 1)
	ws, err := m.NewWorkspace(64)
	if err != nil {
		t.Fatal(err)
	}
	tailX, tailY := new(tensor.Tensor), new(tensor.Tensor)
	x.RowRangeInto(tailX, 0, 9)
	y.RowRangeInto(tailY, 0, 9)
	step := func() {
		if _, err := m.TrainBatch(ws, x, y, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainBatch(ws, tailX, tailY, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("TrainBatch allocated %v times per full+short step pair, want 0", allocs)
	}
	big, _ := synthBinary(rand.New(rand.NewSource(3)), 2*predictBlock+37, 7)
	predict := func() {
		if _, err := predict(m, big); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, predict); allocs > 3 {
		t.Errorf("PredictFill allocated %v times, want <= 3 (its output)", allocs)
	}
}
