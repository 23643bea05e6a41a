package optimizer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	tests := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{1}, []float64{1, 2}, false}, // length mismatch
	}
	for _, tc := range tests {
		if got := Dominates(tc.a, tc.b); got != tc.want {
			t.Fatalf("Dominates(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Objs: []float64{1, 5}},
		{Objs: []float64{2, 2}},
		{Objs: []float64{5, 1}},
		{Objs: []float64{3, 3}}, // dominated by (2,2)
		{Objs: []float64{2, 2}}, // duplicate
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	if front[0].Objs[0] != 1 || front[2].Objs[0] != 5 {
		t.Fatalf("front order = %v", front)
	}
}

func TestHypervolume2D(t *testing.T) {
	front := []Point{
		{Objs: []float64{1, 3}},
		{Objs: []float64{2, 2}},
		{Objs: []float64{3, 1}},
	}
	hv, err := Hypervolume2D(front, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rectangles: (4-3)*(4-1)=3, (3-2)*(4-2)=2, (2-1)*(4-3)=1 → 6.
	if hv != 6 {
		t.Fatalf("hv = %v, want 6", hv)
	}
	if _, err := Hypervolume2D([]Point{{Objs: []float64{1}}}, 4, 4); !errors.Is(err, ErrSpace) {
		t.Fatalf("1-objective hv: %v", err)
	}
	// Points beyond the reference contribute nothing.
	hv2, err := Hypervolume2D([]Point{{Objs: []float64{9, 9}}}, 4, 4)
	if err != nil || hv2 != 0 {
		t.Fatalf("out-of-ref hv = %v, %v", hv2, err)
	}
}

// Property: adding points never decreases hypervolume.
func TestPropertyHypervolumeMonotone(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point
		prev := 0.0
		for i := 0; i < 20; i++ {
			pts = append(pts, Point{Objs: []float64{rng.Float64() * 10, rng.Float64() * 10}})
			hv, err := Hypervolume2D(pts, 10, 10)
			if err != nil {
				return false
			}
			if hv+1e-12 < prev {
				return false
			}
			prev = hv
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForestLearnsSimpleFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		xs = append(xs, []float64{a, b})
		ys = append(ys, 3*a+b*b)
	}
	fr, err := TrainForest(rng, xs, ys, ForestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := fr.R2(xs, ys); r2 < 0.9 {
		t.Fatalf("train R2 = %v", r2)
	}
	// Held out.
	var hx [][]float64
	var hy []float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		hx = append(hx, []float64{a, b})
		hy = append(hy, 3*a+b*b)
	}
	if r2 := fr.R2(hx, hy); r2 < 0.7 {
		t.Fatalf("held-out R2 = %v", r2)
	}
}

func TestForestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainForest(rng, nil, nil, ForestConfig{}); !errors.Is(err, ErrForest) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := TrainForest(rng, [][]float64{{1}}, []float64{1, 2}, ForestConfig{}); !errors.Is(err, ErrForest) {
		t.Fatalf("mismatch: %v", err)
	}
	if _, err := TrainForest(rng, [][]float64{{1}, {1, 2}}, []float64{1, 2}, ForestConfig{}); !errors.Is(err, ErrForest) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestForestConstantTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{7, 7, 7, 7}
	fr, err := TrainForest(rng, xs, ys, ForestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.Predict([]float64{2.5}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant prediction = %v", got)
	}
	if fr.R2(xs, ys) != 1 {
		t.Fatal("constant R2 should be 1")
	}
}

// toySpace is a 2-param space with a known analytic objective.
func toySpace() (Space, Evaluator) {
	vals := make([]string, 16)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	s := Space{Params: []Param{
		{Name: "x", Values: vals},
		{Name: "y", Values: vals},
	}}
	eval := func(cfg []int) ([]float64, error) {
		x, y := float64(cfg[0]), float64(cfg[1])
		// Conflicting objectives: latency falls with x, energy rises with x.
		return []float64{128 - 8*x + y, 8*x + y}, nil
	}
	return s, eval
}

func TestSpaceBasics(t *testing.T) {
	s, _ := toySpace()
	if s.Size() != 256 {
		t.Fatalf("Size = %d", s.Size())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Space{}).Validate(); !errors.Is(err, ErrSpace) {
		t.Fatalf("empty space: %v", err)
	}
	if err := (Space{Params: []Param{{Name: "p"}}}).Validate(); !errors.Is(err, ErrSpace) {
		t.Fatalf("empty values: %v", err)
	}
}

func TestRandomSearchNoRepeats(t *testing.T) {
	s, eval := toySpace()
	pts, err := RandomSearch(rand.New(rand.NewSource(4)), s, eval, 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pts {
		k := configKey(p.Config)
		if seen[k] {
			t.Fatal("random search repeated a config")
		}
		seen[k] = true
	}
	if len(pts) != 30 {
		t.Fatalf("evaluated %d", len(pts))
	}
}

func TestActiveLearnFindsFront(t *testing.T) {
	s, eval := toySpace()
	res, err := ActiveLearn(rand.New(rand.NewSource(5)), s, eval, ALConfig{
		InitSamples: 8, Iterations: 4, BatchSize: 4, PoolSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || len(res.Evaluated) == 0 {
		t.Fatal("empty result")
	}
	// The true front is the y=0 line; with a small budget the learner must
	// at least have pulled several front points near it.
	near := 0
	for _, p := range res.Front {
		if p.Config[1] <= 3 {
			near++
		}
	}
	if near < len(res.Front)/2 || near == 0 {
		t.Fatalf("only %d of %d front points near the optimum", near, len(res.Front))
	}
	if len(res.SurrogateR2) != 2 {
		t.Fatalf("R2 = %v", res.SurrogateR2)
	}
}

func TestActiveLearnCompetitiveWithRandom(t *testing.T) {
	// On a tiny smooth 2-D space, random sampling is a strong baseline; the
	// active learner must at least match it on average (its decisive wins
	// show up on the larger spaces of experiment E10).
	s, eval := toySpace()
	var rsSum, alSum float64
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		rs, err := RandomSearch(rand.New(rand.NewSource(seed)), s, eval, 20)
		if err != nil {
			t.Fatal(err)
		}
		rsHV, _ := Hypervolume2D(ParetoFront(rs), 150, 150)
		al, err := ActiveLearn(rand.New(rand.NewSource(seed)), s, eval, ALConfig{
			InitSamples: 8, Iterations: 3, BatchSize: 4, PoolSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		alHV, _ := Hypervolume2D(al.Front, 150, 150)
		rsSum += rsHV
		alSum += alHV
	}
	if alSum < rsSum*0.97 {
		t.Fatalf("active learning mean HV %.1f well below random %.1f", alSum/trials, rsSum/trials)
	}
}
