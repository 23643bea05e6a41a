//go:build !race

package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
	"polystorepp/internal/subplan"
)

// TestSubplanHitServesDenseViews: a subplan entry is published by reference
// and gathered by its first hit; from then on a hit must cost no more than
// the budget. The traffic is bench/'s similar_family — 32 shared
// scan -> filter(kind = K) -> project prefixes under ORDER BY value DESC
// LIMIT L — on a warmed runtime (every prefix published, then hit once), and
// every measured statement is new, so what it hits is the prefix, not an
// entry of its own. The sort is not in the prefix: it holds the LIMIT (it
// keeps only L rows, a top-L over the entry's ≤ 100 rows), so each request
// runs it and binds its own copy of the sort node.
//
// The budget is this test's reading: 33 allocations and 4 000 bytes (it
// reads 3 978 to 3 980 at 1 to 32 Ps). It read 35 and 4 010 to 4 024 while
// each owned cache entry took a list cell of its owner's ledger beside it;
// 73 and 7 632 while served nodes cost no run of their own but the rest was
// allocated per node and per candidate (an execution's bookkeeping is now
// sized once from the plan: the bound sort shares the plan node's
// attributes, a probe that hits builds no key string, version vectors are
// rendered on the stack); and 87 and 10 576 while each served node got a run
// holding a copy of its record, and the driver and the probe kept per-node
// maps. While the sorted prefix was served and LIMIT was a view over it, it
// read 101 and 9 480 (the figures of publishing by copy, which that layout
// was held to).
const servedAllocs, servedBytes = 33, 4000

func TestSubplanHitServesDenseViews(t *testing.T) {
	const kinds, perKind = 32, 100
	store := relational.NewStore("db")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	rng, b := rand.New(rand.NewSource(5)), cast.NewBatch(events.Schema(), kinds*perKind)
	for i := 0; i < kinds*perKind; i++ {
		if err := b.AppendRow(int64(i), int64(i%kinds), float64(rng.Intn(8000))/8); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))

	ctx := context.Background()
	compile := func(k, l int) *compiler.Plan {
		p := eide.NewProgram()
		if _, err := p.SQL("db", fmt.Sprintf("SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d", k, l)); err != nil {
			t.Fatal(err)
		}
		plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	var buf []byte
	serve := func(plans []*compiler.Plan) {
		for _, plan := range plans {
			res, _, err := rt.Execute(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			out := res.First().Batch
			if buf, err = out.AppendJSONRows(buf[:0], 0, out.Rows()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Rounds of 32 x 15 statements, no limit used twice. The first publishes
	// the 32 prefixes and takes each one's first hit; the least of the other
	// four is the figure (the runtime allocates beside some).
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for round := 0; round < 5; round++ {
		var plans []*compiler.Plan
		for k := 0; k < kinds; k++ {
			for l := 1 + round*15; l <= 15+round*15; l++ {
				plans = append(plans, compile(k, l))
			}
		}
		hits := rt.st.subplanHits.Value()
		runtime.ReadMemStats(&before)
		serve(plans)
		runtime.ReadMemStats(&after)
		if round == 0 {
			continue
		}
		if got := rt.st.subplanHits.Value() - hits; got != int64(len(plans)) {
			t.Fatalf("%d subplan hits for %d new statements over warmed prefixes", got, len(plans))
		}
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(len(plans)))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(len(plans)))
	}
	t.Logf("per served request: %d allocations, %d bytes", allocs, bytes)
	if allocs > servedAllocs || bytes > servedBytes {
		t.Fatalf("a served similar_family request costs %d allocations and %d bytes; publishing by copy cost %d and %d",
			allocs, bytes, servedAllocs, servedBytes)
	}
}

// chainPublishBytes is what an execution of the 5-node chain below
// allocates with the subplan cache on, where all of its 4 nested candidates
// miss and publish, beyond what the same execution allocates with the cache
// off: the probe, the keys, the entries and their cache cells, and the
// publications' record pointers. It reads 1 794 to 1 798; it read 1 863
// while each entry took a list cell of its owner's ledger beside it, and
// 6 112 while each publication copied the record of every node of its
// closure (168 bytes each, 14 copies for closures of 5, 4, 3 and 2 nodes);
// records are now written once, in the execution's slab, and each entry
// points at them.
const chainPublishBytes = 1824

// TestChainPublicationsShareRecords executes scan -> filter -> project ->
// sort -> limit (bench/'s cold_analytic ORDER BY template) with a constant
// no earlier execution bound, so every candidate misses and publishes. The
// published entries must hold one record per node between them, each
// shared by every entry whose closure holds the node, and the publications
// must cost no more than chainPublishBytes.
func TestChainPublicationsShareRecords(t *testing.T) {
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT id, value FROM events WHERE id >= 0 ORDER BY value DESC LIMIT 50"); err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	closures := 0
	for _, st := range plan.Subtrees {
		closures += len(st.Closure)
	}
	if len(plan.Order) != 5 || len(plan.Subtrees) != 4 || closures != 14 {
		t.Fatalf("%d nodes, %d candidates over %d closure nodes; want a 5-node chain of 4 nested candidates", len(plan.Order), len(plan.Subtrees), closures)
	}
	store := loweringStore(t)
	// perExecution executes n plans, each binding its own constant, and
	// returns the bytes one execution allocates.
	perExecution := func(rt *Runtime) uint64 {
		const n = 200
		plans := make([]*compiler.Plan, n)
		for i := range plans {
			plans[i] = withBinds(plan, []any{int64(-1 - i), int64(50)}) // every row, under a key of its own
		}
		ctx := context.Background()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, plan := range plans {
			if _, _, err := rt.Execute(ctx, plan); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	newRuntime := func(opts ...Option) *Runtime {
		rt := NewRuntime(hw.NewHostCPU(), opts...)
		rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
		return rt
	}

	rt := newRuntime()
	if _, _, err := rt.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	entries := rt.subplan.Values()
	records, pointers := map[*subplan.NodeCost]bool{}, 0
	for _, e := range entries {
		for _, rec := range e.Costs {
			records[rec] = true
			pointers++
		}
	}
	if len(entries) != 4 || pointers != closures || len(records) != len(plan.Order) {
		t.Fatalf("%d entries point at %d records through %d pointers; want 4 entries sharing %d records through %d",
			len(entries), len(records), pointers, len(plan.Order), closures)
	}

	off, on := perExecution(newRuntime(WithSubplanCacheBytes(-1))), perExecution(rt)
	t.Logf("publishing costs %d bytes per execution (%d with the cache on, %d off)", on-off, on, off)
	if on-off > chainPublishBytes {
		t.Fatalf("publishing a 5-node chain costs %d bytes per execution, ceiling %d", on-off, chainPublishBytes)
	}
}

// BenchmarkExecuteColdMiss executes bench/'s cold_analytic group-by template
// (SELECT kind, count(*), sum(value) FROM events WHERE id >= K GROUP BY kind)
// on a subplan miss: every iteration binds a constant no earlier one bound,
// so every candidate misses, runs and publishes. What it allocates beside the
// kernels is the driver's per-execution bookkeeping. CI's kernel smoke holds
// its B/op.
func BenchmarkExecuteColdMiss(b *testing.B) {
	rt := NewRuntime(hw.NewHostCPU(), WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(loweringStore(b))))
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= 0 GROUP BY kind"); err != nil {
		b.Fatal(err)
	}
	plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(plan.Binds) != 1 || len(plan.Subtrees) < 2 {
		b.Fatalf("plan binds %d constants and has %d candidates; want 1 and nested candidates", len(plan.Binds), len(plan.Subtrees))
	}
	// id >= -i keeps every row, so each iteration does the same work under
	// a key of its own.
	plans := make([]*compiler.Plan, b.N)
	for i := range plans {
		plans[i] = withBinds(plan, []any{int64(-i)})
	}
	ctx := context.Background()
	published := rt.st.subplanPublished.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for _, plan := range plans {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := rt.st.subplanPublished.Value()-published, int64(b.N*len(plan.Subtrees)); got != want {
		b.Fatalf("%d publications over %d executions of %d candidates", got, b.N, len(plan.Subtrees))
	}
}
