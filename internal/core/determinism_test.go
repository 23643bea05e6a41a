package core

import (
	"context"
	"math/rand"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/graphstore"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// accelRuntime is a runtime with the standard accelerator pool attached and
// the subplan cache off, so every execution runs (and places) every kernel.
func accelRuntime() *Runtime {
	return NewRuntime(hw.NewHostCPU(), WithSubplanCacheBytes(-1),
		WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
}

// figure2Case is the clinical pipeline: two SQL subprograms, a vitals
// summary, two joins, MLP training and prediction.
func figure2Case(t *testing.T) (*Runtime, *ir.Graph) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(19)), 300)
	if err != nil {
		t.Fatal(err)
	}
	rt := accelRuntime()
	rt.Register(adapter.NewRelational("db-clinical", relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewTimeseries("ts-vitals", data.Timeseries))
	rt.Register(adapter.NewML("ml", 7))
	p := eide.NewProgram()
	if _, err := eide.BuildClinicalPipeline(p, eide.Binding{
		Relational: "db-clinical", Timeseries: "ts-vitals", ML: "ml",
	}); err != nil {
		t.Fatal(err)
	}
	return rt, p.Graph()
}

// figure5Case is the heterogeneous DFG: a graph pattern match joined to a
// relational table, grouped and sorted, feeding k-means on the ML engine.
func figure5Case(t *testing.T) (*Runtime, *ir.Graph) {
	const users, products = 400, 60
	rng := rand.New(rand.NewSource(17))
	gs := graphstore.New()
	for u := 0; u < users; u++ {
		gs.AddNode(graphstore.Node{ID: graphstore.NodeID(u), Label: "user"})
	}
	db := relational.NewStore("db")
	tb, err := db.CreateTable("products", cast.MustSchema(
		cast.Column{Name: "prod_id", Type: cast.Int64},
		cast.Column{Name: "price", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < products; p++ {
		gs.AddNode(graphstore.Node{ID: graphstore.NodeID(100000 + p), Label: "product"})
		if err := tb.Insert(int64(100000+p), 1+rng.Float64()*99); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		for e := 0; e < 5; e++ {
			if err := gs.AddEdge(graphstore.Edge{
				From: graphstore.NodeID(u), To: graphstore.NodeID(100000 + rng.Intn(products)),
				Type: "bought",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt := accelRuntime()
	rt.Register(adapter.NewRelational("db", relational.NewEngine(db)))
	rt.Register(adapter.NewGraph("graph", gs))
	rt.Register(adapter.NewML("ml", 13))

	g := ir.NewGraph()
	match := g.Add(ir.OpGraphMatch, "graph", map[string]any{
		"label_a": "user", "edge_type": "bought", "label_b": "product",
	})
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "products"})
	join := g.Add(ir.OpHashJoin, "db", map[string]any{"left_col": "b", "right_col": "prod_id"}, match, scan)
	grp := g.Add(ir.OpGroupBy, "db", map[string]any{
		"group_cols": []string{"a"},
		"aggs": []relational.AggSpec{
			{Fn: relational.AggCount, As: "n_bought"},
			{Fn: relational.AggSum, Col: "price", As: "spend"},
		},
	}, join)
	sorted := g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "spend", Desc: true}},
	}, grp)
	g.Add(ir.OpKMeans, "ml", map[string]any{
		"cols": []string{"n_bought", "spend"}, "k": int64(4), "iters": int64(10),
	}, sorted)
	return rt, g
}

// hashJoinCase joins two tables of one relational engine.
func hashJoinCase(t *testing.T) (*Runtime, *ir.Graph) {
	rt := accelRuntime()
	rt.Register(adapter.NewRelational("db", relational.NewEngine(loweringStore(t))))
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT pid, age, cost FROM patients JOIN visits ON pid = vpid ORDER BY cost DESC"); err != nil {
		t.Fatal(err)
	}
	return rt, p.Graph()
}

// TestSimulatedReportIgnoresHistory: the simulated side of a Report —
// latency, energy, and every node's device, cost and schedule — is a
// function of plan, data and device catalog. The same compiled plan run
// eight times on one runtime, and once on a second runtime that has never
// executed anything, reports the same figures every time.
func TestSimulatedReportIgnoresHistory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*Runtime, *ir.Graph)
	}{
		{"figure2", figure2Case},
		{"figure5", figure5Case},
		{"hashjoin", hashJoinCase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, g := tc.build(t)
			plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			_, want, err := rt.Execute(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			for run := 2; run <= 8; run++ {
				_, got, err := rt.Execute(ctx, plan)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				t.Logf("run %d: latency %.9fs energy %.6fJ", run, got.Latency, got.Energy)
				reportsEqual(t, got, want)
			}
			fresh, _ := tc.build(t)
			_, got, err := fresh.Execute(ctx, plan)
			if err != nil {
				t.Fatalf("fresh runtime: %v", err)
			}
			reportsEqual(t, got, want)
		})
	}
}
