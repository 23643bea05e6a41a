package optimizer

import (
	"fmt"
	"math/rand"
)

// Param is one dimension of the design space: a named list of discrete
// choices (categorical or ordinal — both are index-encoded, matching the
// paper's observation that such variables preclude gradient methods).
type Param struct {
	Name   string
	Values []string
}

// Space is the design space X of equation (1) in the paper.
type Space struct {
	Params []Param
}

// Size returns the number of configurations in the space.
func (s Space) Size() int64 {
	n := int64(1)
	for _, p := range s.Params {
		n *= int64(len(p.Values))
	}
	return n
}

// Validate checks the space is non-degenerate.
func (s Space) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("%w: no parameters", ErrSpace)
	}
	for _, p := range s.Params {
		if len(p.Values) == 0 {
			return fmt.Errorf("%w: parameter %q has no values", ErrSpace, p.Name)
		}
	}
	return nil
}

// Evaluator runs one configuration and returns its (minimized) objectives.
// This is the black-box f of equation (1): in Polystore++ it executes the
// workload under the configuration and reports latency and energy.
type Evaluator func(config []int) ([]float64, error)

// randomConfig samples a uniform configuration.
func randomConfig(rng *rand.Rand, s Space) []int {
	cfg := make([]int, len(s.Params))
	for i, p := range s.Params {
		cfg[i] = rng.Intn(len(p.Values))
	}
	return cfg
}

func configKey(cfg []int) string {
	b := make([]byte, 0, len(cfg)*3)
	for _, v := range cfg {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func configFloats(cfg []int) []float64 {
	out := make([]float64, len(cfg))
	for i, v := range cfg {
		out[i] = float64(v)
	}
	return out
}

// RandomSearch evaluates n uniform random configurations (without repeats)
// and returns all evaluated points — the baseline of Figure 8.
func RandomSearch(rng *rand.Rand, s Space, eval Evaluator, n int) ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, n)
	var out []Point
	attempts := 0
	for len(out) < n && attempts < n*20 {
		attempts++
		cfg := randomConfig(rng, s)
		k := configKey(cfg)
		if seen[k] {
			continue
		}
		seen[k] = true
		objs, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Config: cfg, Objs: objs})
	}
	return out, nil
}

// ALResult is the outcome of the active-learning loop.
type ALResult struct {
	Evaluated []Point
	Front     []Point
	// SurrogateR2 is the final per-objective fit quality on the evaluated
	// set (optimistic but useful as a sanity signal).
	SurrogateR2 []float64
}

// ALConfig tunes ActiveLearn. Zero values pick defaults.
type ALConfig struct {
	InitSamples int // default 10: random warm-up evaluations
	Iterations  int // default 5: active-learning rounds
	BatchSize   int // default 5: evaluations per round
	PoolSize    int // default 200: candidate configurations scored per round
	Forest      ForestConfig
}

func (c ALConfig) withDefaults() ALConfig {
	if c.InitSamples <= 0 {
		c.InitSamples = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 5
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 200
	}
	return c
}

// ActiveLearn runs the active-learning design-space exploration of Figure 8:
// random warm-up, then iterations of (train per-objective forests → score a
// candidate pool → compute the predicted Pareto front → evaluate the
// predicted-optimal batch → retrain on everything).
func ActiveLearn(rng *rand.Rand, s Space, eval Evaluator, cfg ALConfig) (*ALResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	evaluated := make([]Point, 0, cfg.InitSamples+cfg.Iterations*cfg.BatchSize)
	seen := make(map[string]bool)
	evalOnce := func(c []int) error {
		k := configKey(c)
		if seen[k] {
			return nil
		}
		seen[k] = true
		objs, err := eval(c)
		if err != nil {
			return err
		}
		evaluated = append(evaluated, Point{Config: c, Objs: objs})
		return nil
	}

	for i := 0; i < cfg.InitSamples; i++ {
		if err := evalOnce(randomConfig(rng, s)); err != nil {
			return nil, err
		}
	}
	if len(evaluated) == 0 {
		return nil, fmt.Errorf("%w: warm-up produced no evaluations", ErrSpace)
	}
	nObjs := len(evaluated[0].Objs)

	var forests []*Forest
	for it := 0; it < cfg.Iterations; it++ {
		// Train one forest per objective on everything evaluated so far.
		xs := make([][]float64, len(evaluated))
		for i, p := range evaluated {
			xs[i] = configFloats(p.Config)
		}
		forests = forests[:0]
		for o := 0; o < nObjs; o++ {
			ys := make([]float64, len(evaluated))
			for i, p := range evaluated {
				ys[i] = p.Objs[o]
			}
			f, err := TrainForest(rng, xs, ys, cfg.Forest)
			if err != nil {
				return nil, err
			}
			forests = append(forests, f)
		}
		// Score a random candidate pool with the surrogates.
		var pool []Point
		for i := 0; i < cfg.PoolSize; i++ {
			c := randomConfig(rng, s)
			if seen[configKey(c)] {
				continue
			}
			x := configFloats(c)
			objs := make([]float64, nObjs)
			for o, f := range forests {
				objs[o] = f.Predict(x)
			}
			pool = append(pool, Point{Config: c, Objs: objs})
		}
		// Evaluate points spread across the predicted Pareto front (taking
		// only its head would explore a single corner of the trade-off), and
		// keep one uniformly random evaluation per round for exploration.
		predicted := ParetoFront(pool)
		batch := 0
		guided := cfg.BatchSize - 1
		if guided < 1 {
			guided = 1
		}
		if len(predicted) > 0 {
			step := float64(len(predicted)) / float64(guided)
			if step < 1 {
				step = 1
			}
			for i := 0.0; int(i) < len(predicted) && batch < guided; i += step {
				if err := evalOnce(predicted[int(i)].Config); err != nil {
					return nil, err
				}
				batch++
			}
		}
		if batch < cfg.BatchSize {
			if err := evalOnce(randomConfig(rng, s)); err != nil {
				return nil, err
			}
			batch++
		}
		// Top up from the rest of the pool if the front was small.
		for _, p := range pool {
			if batch >= cfg.BatchSize {
				break
			}
			if seen[configKey(p.Config)] {
				continue
			}
			if err := evalOnce(p.Config); err != nil {
				return nil, err
			}
			batch++
		}
	}

	res := &ALResult{Evaluated: evaluated, Front: ParetoFront(evaluated)}
	if len(forests) == nObjs {
		xs := make([][]float64, len(evaluated))
		for i, p := range evaluated {
			xs[i] = configFloats(p.Config)
		}
		for o, f := range forests {
			ys := make([]float64, len(evaluated))
			for i, p := range evaluated {
				ys[i] = p.Objs[o]
			}
			res.SurrogateR2 = append(res.SurrogateR2, f.R2(xs, ys))
			_ = o
		}
	}
	return res, nil
}
