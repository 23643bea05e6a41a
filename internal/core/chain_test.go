package core

import (
	"fmt"
	"math/rand"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
)

// stageWidth is the widest stage of the plan's schedule (Plan.Stages): the
// most nodes that can run at once. A plan is a chain when it is at most one.
func stageWidth(plan *compiler.Plan) int {
	w := 0
	for _, stage := range plan.Stages {
		w = max(w, len(stage))
	}
	return w
}

// generatedDAG builds a random DAG of n nodes over two engines, so the
// compiler inserts migrations too: node i reads each earlier node with
// probability p. Sources scan, single-input nodes sort, the rest join.
func generatedDAG(rng *rand.Rand, n int, p float64) *ir.Graph {
	g := ir.NewGraph()
	var ids []ir.NodeID
	for i := 0; i < n; i++ {
		var inputs []ir.NodeID
		for _, id := range ids {
			if rng.Float64() < p {
				inputs = append(inputs, id)
			}
		}
		engine := [...]string{"db", "ml"}[rng.Intn(2)]
		kind := ir.OpHashJoin
		switch len(inputs) {
		case 0:
			kind = ir.OpScan
		case 1:
			kind = ir.OpSort
		}
		ids = append(ids, g.Add(kind, engine, map[string]any{}, inputs...))
	}
	return g
}

// TestIsChainAgreesWithStages: isChain, which reads Plan.Order alone, calls a
// plan a chain exactly when no stage of its schedule is wider than one node.
// It is checked on the programs core's suites compile, at every optimization
// level with and without acceleration, and on generated DAGs: diamonds,
// disconnected sources, chains with a skip edge, and random ones.
func TestIsChainAgreesWithStages(t *testing.T) {
	graphs := map[string]*ir.Graph{"sort": sortProgram(), "limit": limitProgram(50)}
	for w := 1; w <= 8; w++ {
		graphs[fmt.Sprint("branch", w)] = branchProgram(w)
		graphs[fmt.Sprint("fanout", w)] = fanoutProgram(w)
	}
	for name, build := range map[string]func(*testing.T) (*Runtime, *ir.Graph){
		"figure2": figure2Case, "figure5": figure5Case, "hashjoin": hashJoinCase,
	} {
		_, graphs[name] = build(t)
	}
	for _, p := range crossEnginePrograms(t) {
		graphs[p.name] = p.g
	}
	rng := rand.New(rand.NewSource(5))
	sql := func(name, stmt string) {
		p := eide.NewProgram()
		if _, err := p.SQL("db", stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		graphs[name] = p.Graph()
	}
	for i := 0; i < 200; i++ {
		sql(fmt.Sprint("lowering", i), generateStatement(rng))
	}
	for i, family := range shapeFamilies(rng) {
		sql(fmt.Sprint("shape", i), family[0])
	}

	// diamond: a -> b, a -> c, (b, c) -> d.
	diamond := ir.NewGraph()
	a := diamond.Add(ir.OpScan, "db", map[string]any{})
	b := diamond.Add(ir.OpSort, "db", map[string]any{}, a)
	c := diamond.Add(ir.OpSort, "db", map[string]any{}, a)
	diamond.Add(ir.OpHashJoin, "db", map[string]any{}, b, c)
	graphs["diamond"] = diamond
	// two sources, one join: the sources share stage 0.
	sources := ir.NewGraph()
	sources.Add(ir.OpHashJoin, "db", map[string]any{},
		sources.Add(ir.OpScan, "db", map[string]any{}), sources.Add(ir.OpScan, "db", map[string]any{}))
	graphs["two sources"] = sources
	// disconnected: two chains that never meet.
	apart := ir.NewGraph()
	apart.Add(ir.OpSort, "db", map[string]any{}, apart.Add(ir.OpScan, "db", map[string]any{}))
	apart.Add(ir.OpSort, "ml", map[string]any{}, apart.Add(ir.OpScan, "ml", map[string]any{}))
	graphs["disconnected"] = apart
	// a chain with a skip edge: a -> b -> c, and c also reads a.
	skip := ir.NewGraph()
	s0 := skip.Add(ir.OpScan, "db", map[string]any{})
	skip.Add(ir.OpHashJoin, "db", map[string]any{}, skip.Add(ir.OpSort, "db", map[string]any{}, s0), s0)
	graphs["skip edge"] = skip
	for i := 0; i < 300; i++ {
		graphs[fmt.Sprint("random", i)] = generatedDAG(rng, 1+rng.Intn(10), []float64{0.1, 0.4, 0.9}[i%3])
	}

	chains, wide := 0, 0
	for name, g := range graphs {
		for level := 0; level <= 3; level++ {
			for _, accel := range []bool{false, true} {
				plan, err := compiler.Compile(g, compiler.Options{Level: level, Accel: accel})
				if err != nil {
					t.Fatalf("%s L%d: %v", name, level, err)
				}
				w := stageWidth(plan)
				if got := isChain(plan.Order, nil); got != (w <= 1) {
					t.Fatalf("%s L%d accel=%t: isChain %t, widest stage %d", name, level, accel, got, w)
				}
				if w <= 1 {
					chains++
				} else {
					wide++
				}
			}
		}
	}
	if chains == 0 || wide == 0 {
		t.Fatalf("%d chains and %d wider plans: the cases must hold both", chains, wide)
	}
	for name, want := range map[string]bool{"diamond": false, "two sources": false, "disconnected": false, "skip edge": true, "sort": true} {
		plan, err := compiler.Compile(graphs[name], compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := isChain(plan.Order, nil); got != want {
			t.Errorf("%s: isChain %t, want %t", name, got, want)
		}
	}
}
