package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
	"polystorepp/internal/subplan"
)

// branchProgram builds `width` independent scan -> filter -> sort chains
// (each with a private scan, so every chain is a closed subtree) — wide
// enough to engage the concurrent scheduler while keeping candidates.
func branchProgram(width int) *ir.Graph {
	g := ir.NewGraph()
	for i := 0; i < width; i++ {
		scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
		f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
			Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(i * 50)},
		}}, scan)
		g.Add(ir.OpSort, "db", map[string]any{
			"order_by": []relational.OrderItem{{Col: "v"}, {Col: "id"}},
		}, f)
	}
	return g
}

// limitProgram is a scan -> filter -> sort -> limit chain; the limit attr
// varies across the family while the prefix subtree stays shared.
func limitProgram(limit int64) *ir.Graph {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
		Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(100)},
	}}, scan)
	s := g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "v"}, {Col: "id"}},
	}, f)
	g.Add(ir.OpLimit, "db", map[string]any{"n": limit}, s)
	return g
}

func mustCompile(t *testing.T, g *ir.Graph, level int) *compiler.Plan {
	t.Helper()
	plan, err := compiler.Compile(g, compiler.Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// batchesEqual requires byte-identical sink payloads, not just row counts.
func batchesEqual(t *testing.T, got, want *Results) {
	t.Helper()
	resultsEqual(t, got, want)
	for _, s := range want.Sinks {
		g, w := got.Values[s].Batch, want.Values[s].Batch
		if (g == nil) != (w == nil) {
			t.Fatalf("sink %d: batch presence mismatch", s)
		}
		if g != nil && !g.Equal(w) {
			t.Fatalf("sink %d: batch content mismatch", s)
		}
	}
}

// TestSubplanWarmEqualsCold is the tentpole equivalence guarantee at the
// core layer: with the subplan cache on, a warm execution returns the same
// batches and the same Report (host wall excluded) as the cold one and as a
// cache-disabled runtime, on both executors.
func TestSubplanWarmEqualsCold(t *testing.T) {
	cases := []struct {
		name  string
		graph func() *ir.Graph
		level int
	}{
		{"chain", func() *ir.Graph { return limitProgram(50) }, 3},
		{"fanout", func() *ir.Graph { return branchProgram(8) }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustCompile(t, tc.graph(), tc.level)
			if len(plan.Subtrees) == 0 {
				t.Fatal("plan has no subplan candidates")
			}

			off := testRuntime(t, 2000, true, WithSubplanCacheBytes(-1))
			wantRes, wantRep, err := off.Execute(askRows(context.Background()), plan)
			if err != nil {
				t.Fatal(err)
			}

			on := testRuntime(t, 2000, true)
			coldRes, coldRep, err := on.Execute(askRows(context.Background()), plan)
			if err != nil {
				t.Fatal(err)
			}
			batchesEqual(t, coldRes, wantRes)
			reportsEqual(t, coldRep, wantRep)
			if on.st.subplanPublished.Value() == 0 {
				t.Fatal("cold run published nothing")
			}

			warmRes, warmRep, err := on.Execute(askRows(context.Background()), plan)
			if err != nil {
				t.Fatal(err)
			}
			batchesEqual(t, warmRes, wantRes)
			reportsEqual(t, warmRep, wantRep)
			if on.st.subplanHits.Value() == 0 {
				t.Fatal("warm run hit nothing")
			}
			if on.st.subplanPlansReused.Value() == 0 {
				t.Fatal("warm run not counted as reused")
			}
		})
	}
}

// TestSubplanSharedPrefixAcrossPlans: near-identical queries (same prefix,
// different limit) reuse the prefix subtree — the second plan's sort subtree
// is served from the first plan's publication.
func TestSubplanSharedPrefixAcrossPlans(t *testing.T) {
	rt := testRuntime(t, 2000, false)
	if _, _, err := rt.Execute(context.Background(), mustCompile(t, limitProgram(10), 3)); err != nil {
		t.Fatal(err)
	}
	hits0 := rt.st.subplanHits.Value()

	// Different limit: whole-plan key differs, prefix key matches.
	res, _, err := rt.Execute(context.Background(), mustCompile(t, limitProgram(25), 3))
	if err != nil {
		t.Fatal(err)
	}
	if rt.st.subplanHits.Value() <= hits0 {
		t.Fatal("limit variant did not hit the shared prefix subtree")
	}
	if got := res.First().Batch.Rows(); got != 25 {
		t.Fatalf("variant rows = %d, want 25", got)
	}

	// Equivalence of the served variant against a cache-disabled runtime.
	off := testRuntime(t, 2000, false, WithSubplanCacheBytes(-1))
	wantRes, wantRep, err := off.Execute(askRows(context.Background()), mustCompile(t, limitProgram(25), 3))
	if err != nil {
		t.Fatal(err)
	}
	batchesEqual(t, res, wantRes)
	_, rep2, err := rt.Execute(askRows(context.Background()), mustCompile(t, limitProgram(25), 3))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, rep2, wantRep)
}

// TestSubplanStreamWarmReplay: a warm hit on the streamed sink replays the
// memoized batch through the ResultSink; rows and report match a cold
// stream on a cache-disabled runtime.
func TestSubplanStreamWarmReplay(t *testing.T) {
	plan := mustCompile(t, limitProgram(500), 3)

	off := testRuntime(t, 2000, false, WithSubplanCacheBytes(-1))
	wantSink := &collectSink{}
	wantRes, wantRep, err := off.ExecuteStream(context.Background(), plan, wantSink)
	if err != nil {
		t.Fatal(err)
	}

	on := testRuntime(t, 2000, false)
	coldSink := &collectSink{}
	if _, _, err := on.ExecuteStream(context.Background(), plan, coldSink); err != nil {
		t.Fatal(err)
	}
	warmSink := &collectSink{}
	warmRes, warmRep, err := on.ExecuteStream(context.Background(), plan, warmSink)
	if err != nil {
		t.Fatal(err)
	}
	if on.st.subplanHits.Value() == 0 {
		t.Fatal("warm stream hit nothing")
	}
	if !warmSink.started || warmSink.starts != 1 {
		t.Fatalf("warm sink starts = %d", warmSink.starts)
	}
	if !warmSink.concat(t).Equal(wantSink.concat(t)) {
		t.Fatal("warm streamed payload differs from cache-off stream")
	}
	if !coldSink.concat(t).Equal(wantSink.concat(t)) {
		t.Fatal("cold streamed payload differs from cache-off stream")
	}
	batchesEqual(t, warmRes, wantRes)
	reportsEqual(t, warmRep, wantRep)
}

// TestSubplanInvalidationOnWrite: a write to a touched table rotates the
// version vector, so warm keys stop being addressable and the next run sees
// the new data.
func TestSubplanInvalidationOnWrite(t *testing.T) {
	store := testStore(t, 1000)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	rt.Register(adapter.NewML("ml", 1))

	plan := mustCompile(t, limitProgram(100000), 3)
	res1, _, err := rt.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := res1.First().Batch.Rows()

	tb, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(int64(10_000), int64(999)); err != nil { // passes v > 100
		t.Fatal(err)
	}

	res2, _, err := rt.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.First().Batch.Rows(); got != rows1+1 {
		t.Fatalf("post-write rows = %d, want %d (stale subplan served?)", got, rows1+1)
	}
}

// TestSubplanUntouchedWriteKeepsHits: writes to a store the subtree never
// reads leave its memoized entries addressable (surgical invalidation).
func TestSubplanUntouchedWriteKeepsHits(t *testing.T) {
	touched := testStore(t, 500)
	other := relational.NewStore("db2")
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(touched)))
	rt.Register(adapter.NewRelational("db2", relational.NewEngine(other)))

	plan := mustCompile(t, limitProgram(100000), 3)
	if _, _, err := rt.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}

	// Mutate the untouched store (a new table counts as a write).
	schema := cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64})
	if _, err := other.CreateTable("u", schema); err != nil {
		t.Fatal(err)
	}

	hits0 := rt.st.subplanHits.Value()
	if _, _, err := rt.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if rt.st.subplanHits.Value() <= hits0 {
		t.Fatal("write to an untouched store invalidated the subplan entry")
	}
}

// publishes reports whether the probe holds a pending publication.
func publishes(pr *planProbe) bool {
	return pr != nil && slices.ContainsFunc(pr.nodes, func(pn probeNode) bool { return pn.pub != nil })
}

// TestSubplanMidFlightWriteSkipsPublish drives the probe/publish protocol
// by hand: a write landing between prepare and publication must suppress
// the publication (the batch belongs to neither version).
func TestSubplanMidFlightWriteSkipsPublish(t *testing.T) {
	store := testStore(t, 500)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))

	plan := mustCompile(t, limitProgram(100000), 3)
	ctx := context.Background()
	pr := rt.prepareSubplan(ctx, plan, nil)
	if !publishes(pr) {
		t.Fatalf("probe = %+v, want pending publications", pr)
	}
	defer pr.close()

	// The plan is mid-flight; a concurrent ingest lands.
	tb, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(int64(10_000), int64(999)); err != nil {
		t.Fatal(err)
	}

	order, err := plan.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[ir.NodeID]adapter.Value)
	for _, id := range order {
		n := plan.Graph.MustNode(id)
		inputs := make([]adapter.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = values[in]
		}
		run := &nodeRun{NodeCost: new(subplan.NodeCost)}
		rt.runNode(ctx, n, inputs, run)
		if run.err != nil {
			t.Fatal(run.err)
		}
		values[id] = run.out
		pr.onNodeCosted(id, run)
	}
	if got := rt.st.subplanStaleSkips.Value(); got == 0 {
		t.Fatal("mid-flight write did not suppress publication")
	}
	if got := rt.st.subplanPublished.Value(); got != 0 {
		t.Fatalf("published %d entries despite mid-flight write", got)
	}
	if s, _ := rt.SubplanCacheStats(); s.Entries != 0 {
		t.Fatalf("cache holds %d entries after suppressed publish", s.Entries)
	}
}

// TestSubplanConcurrentColdExecutions runs one plan on a cold runtime from
// many goroutines at once (under -race in CI): each execution that misses
// runs the plan itself, every one returns the baseline batches and report,
// and each candidate key is published once — a racing publication keeps the
// incumbent.
func TestSubplanConcurrentColdExecutions(t *testing.T) {
	plan := mustCompile(t, limitProgram(100000), 3)
	base := testRuntime(t, 2000, false, WithSubplanCacheBytes(-1))
	wantRes, wantRep, err := base.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(t, 2000, false)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	ress := make([]*Results, goroutines)
	reps := make([]*Report, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ress[i], reps[i], errs[i] = rt.Execute(askRows(context.Background()), plan)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		batchesEqual(t, ress[i], wantRes)
		reportsEqual(t, reps[i], wantRep)
	}
	if probed := rt.st.subplanPlansProbed.Value(); probed != goroutines {
		t.Fatalf("plans probed = %d, want %d", probed, goroutines)
	}
	st, _ := rt.SubplanCacheStats()
	if published := rt.st.subplanPublished.Value(); published != int64(len(plan.Subtrees)) || st.Entries != len(plan.Subtrees) {
		t.Fatalf("published %d, %d entries cached; want each of the %d candidate keys once", published, st.Entries, len(plan.Subtrees))
	}
	for i := range plan.Subtrees {
		c := &plan.Subtrees[i]
		if key, _ := appendKey(nil, c, plan.Binds, rt.VersionVector(c.Touches)); rt.subtreeEntry(c, key) == nil {
			t.Fatalf("the candidate rooted at %d is not cached", c.Root)
		}
	}
}

// TestSubplanPropertyRandomPlans: randomized chain/fan-out plan families
// must satisfy warm == cold == disabled, buffered and streamed, across the
// family's attr variations.
func TestSubplanPropertyRandomPlans(t *testing.T) {
	preds := []int64{0, 100, 500}
	limits := []int64{3, 77, 100000}
	for _, p := range preds {
		for _, l := range limits {
			p, l := p, l
			t.Run(fmt.Sprintf("pred%d_limit%d", p, l), func(t *testing.T) {
				g := func() *ir.Graph {
					g := ir.NewGraph()
					scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
					f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
						Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: p},
					}}, scan)
					s := g.Add(ir.OpSort, "db", map[string]any{
						"order_by": []relational.OrderItem{{Col: "v"}, {Col: "id"}},
					}, f)
					g.Add(ir.OpLimit, "db", map[string]any{"n": l}, s)
					return g
				}
				plan := mustCompile(t, g(), 3)
				off := testRuntime(t, 1200, false, WithSubplanCacheBytes(-1))
				wantRes, wantRep, err := off.Execute(askRows(context.Background()), plan)
				if err != nil {
					t.Fatal(err)
				}
				on := testRuntime(t, 1200, false)
				for round := 0; round < 3; round++ {
					res, rep, err := on.Execute(askRows(context.Background()), plan)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					batchesEqual(t, res, wantRes)
					reportsEqual(t, rep, wantRep)
				}
				sink := &collectSink{}
				sres, _, err := on.ExecuteStream(context.Background(), plan, sink)
				if err != nil {
					t.Fatal(err)
				}
				batchesEqual(t, sres, wantRes)
				if sink.rows != wantRes.First().Batch.Rows() {
					t.Fatalf("streamed %d rows, want %d", sink.rows, wantRes.First().Batch.Rows())
				}
			})
		}
	}
}

// TestSubplanPublishedBatchIsShared: publish stores the root's batch itself,
// not a clone, so the entry, the publishing request's downstream nodes and
// every replay read the same storage. Batches are immutable once handed on
// (package cast) — this drives the publishing plan by hand, stops it right
// after its sort subtree publishes, and replays that subtree from 8
// goroutines while the publisher's own limit node keeps reading it. Under
// -race any write to the shared batch fails the run; every result must
// equal a cache-off runtime's.
func TestSubplanPublishedBatchIsShared(t *testing.T) {
	ctx := context.Background()
	plan := mustCompile(t, limitProgram(75), 3)
	off := testRuntime(t, 2000, false, WithSubplanCacheBytes(-1))
	want, _, err := off.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(t, 2000, false)
	pr := rt.prepareSubplan(ctx, plan, nil)
	if !publishes(pr) {
		t.Fatalf("probe = %+v, want pending publications", pr)
	}
	order, err := plan.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[ir.NodeID]adapter.Value)
	run := func(id ir.NodeID) *nodeRun {
		n := plan.Graph.MustNode(id)
		inputs := make([]adapter.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = values[in]
		}
		r := &nodeRun{NodeCost: new(subplan.NodeCost)}
		rt.runNode(ctx, n, inputs, r)
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}
	sink := order[len(order)-1]
	for _, id := range order[:len(order)-1] {
		r := run(id)
		values[id] = r.out
		pr.onNodeCosted(id, r)
	}
	key := pr.key(pr.nodes[order[len(order)-2]].pub)
	pr.close() // the subtree is published: followers may replay it; the probe goes back to the pool
	if rt.st.subplanPublished.Value() == 0 {
		t.Fatal("the sort subtree was not published")
	}
	e, ok := rt.subplan.Get(key)
	if !ok || e.Output.Batch != values[order[len(order)-2]].Batch {
		t.Fatal("the cache entry does not hold the published batch itself")
	}

	var wg sync.WaitGroup
	ress := make([]*Results, 8)
	errs := make([]error, 8)
	for i := range ress {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ress[i], _, errs[i] = rt.Execute(ctx, plan)
		}(i)
	}
	var last *nodeRun
	for i := 0; i < 50; i++ { // the publisher's downstream node, still running
		last = run(sink)
	}
	wg.Wait()
	if !last.out.Batch.Equal(want.Values[sink].Batch) {
		t.Fatal("publisher's own result differs from the cache-off baseline")
	}
	for i, res := range ress {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		batchesEqual(t, res, want)
	}
	if rt.st.subplanHits.Value() == 0 {
		t.Fatal("no replay was served from the cache")
	}
}

// gatedAdapter holds every scan until the executions the test waits for
// have all reached one, so each has probed the subplan cache before any
// publishes.
type gatedAdapter struct {
	*adapter.Relational
	arrived sync.WaitGroup
}

func (a *gatedAdapter) Execute(ctx context.Context, n *ir.Node, inputs []adapter.Value) (adapter.Value, adapter.ExecInfo, error) {
	if len(n.Inputs) == 0 {
		a.arrived.Done()
		a.arrived.Wait()
	}
	return a.Relational.Execute(ctx, n, inputs)
}

// TestSubplanPublishedCountsStoredEntries: a LIMIT 10 and a LIMIT 25 over
// one scan → filter → sort share only the inner subtrees. Each execution
// runs what it misses, so when both miss before either publishes, both
// publish the shared scan → filter and scan → filter → sort. The second Put
// keeps the incumbent, and only the entries the cache stored count as
// published.
func TestSubplanPublishedCountsStoredEntries(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU())
	gate := &gatedAdapter{Relational: adapter.NewRelational("db", relational.NewEngine(testStore(t, 2000)))}
	rt.Register(gate)
	plans := []*compiler.Plan{mustCompile(t, limitProgram(10), 3), mustCompile(t, limitProgram(25), 3)}
	gate.arrived.Add(len(plans))
	var wg sync.WaitGroup
	errs := make([]error, len(plans))
	for i, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = rt.Execute(context.Background(), plan)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if misses := rt.st.subplanMisses.Value(); misses != 6 {
		t.Fatalf("misses = %d, want 6: each execution misses its three candidates", misses)
	}
	st, _ := rt.SubplanCacheStats()
	if published := rt.st.subplanPublished.Value(); st.Entries != 4 || published != 4 {
		t.Fatalf("published %d, %d entries cached; want 4 and 4 (two chains, two shared subtrees)", published, st.Entries)
	}
}

// TestSubplanOversizedOutputBypassed: on a runtime whose subplan cache holds
// 1 byte, every candidate's output costs more than the whole budget, so the
// cache refuses each publication (subplan_cache_bypassed), stores nothing
// and serves nothing, and every execution answers as a cache-off runtime.
func TestSubplanOversizedOutputBypassed(t *testing.T) {
	ctx := askRows(context.Background())
	plan := mustCompile(t, limitProgram(75), 3)
	off := testRuntime(t, 2000, false, WithSubplanCacheBytes(-1))
	wantRes, wantRep, err := off.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t, 2000, false, WithSubplanCacheBytes(1))
	for round := 1; round <= 2; round++ {
		res, rep, err := rt.Execute(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		batchesEqual(t, res, wantRes)
		reportsEqual(t, rep, wantRep)
		if got, want := rt.st.subplanBypassed.Value(), int64(round*len(plan.Subtrees)); got != want {
			t.Fatalf("round %d: bypassed = %d, want %d", round, got, want)
		}
	}
	st, _ := rt.SubplanCacheStats()
	if st.Entries != 0 || rt.st.subplanPublished.Value() != 0 || rt.st.subplanHits.Value() != 0 {
		t.Fatalf("%d entries cached, %d published, %d hits; want none", st.Entries, rt.st.subplanPublished.Value(), rt.st.subplanHits.Value())
	}
}

// TestRootMissProbedOnce: a root probe that misses and the execution handed
// its miss (ExecuteAfterMiss) look the outermost candidate's key up once
// between them — every candidate of the plan once in all, as the cache's
// Stats count lookups — and the execution still publishes under that key.
// Execute, and ExecuteAfterMiss with another plan's miss, look it up again.
func TestRootMissProbedOnce(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(testStore(t, 200))))
	plan, other := mustCompile(t, limitProgram(10), 3), mustCompile(t, limitProgram(25), 3)
	if len(plan.Subtrees) < 2 || len(plan.Subtrees[0].Closure) != len(plan.Order) {
		t.Fatalf("the plan's %d candidates do not nest under one covering it whole", len(plan.Subtrees))
	}
	ctx := context.Background()
	var miss RootMiss
	probeThen := func(exec func() error) int64 {
		t.Helper()
		st, _ := rt.SubplanCacheStats()
		if _, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), &miss); ok {
			t.Fatal("the root probe hit an unpublished plan")
		}
		if err := exec(); err != nil {
			t.Fatal(err)
		}
		after, _ := rt.SubplanCacheStats()
		return after.Lookups - st.Lookups
	}
	write := func() {
		t.Helper()
		if err := rt.Ingest(ctx, "db", adapter.Ingest{Table: "t", Row: []any{int64(1000), int64(3)}}); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(plan.Subtrees))
	if got := probeThen(func() error { _, _, err := rt.ExecuteAfterMiss(ctx, plan, &miss); return err }); got != want {
		t.Fatalf("a root-probe miss and the execution handed it looked %d keys up, want %d", got, want)
	}
	if _, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), &miss); !ok {
		t.Fatal("the execution handed the miss did not publish under the probed key")
	}
	write()
	if got := probeThen(func() error { _, _, err := rt.Execute(ctx, plan); return err }); got != want+1 {
		t.Fatalf("a root-probe miss and Execute looked %d keys up, want %d", got, want+1)
	}
	write()
	if got := probeThen(func() error { _, _, err := rt.ExecuteAfterMiss(ctx, other, &miss); return err }); got != 1+int64(len(other.Subtrees)) {
		t.Fatalf("another plan's execution took the miss: %d lookups, want %d", got, 1+len(other.Subtrees))
	}
}

// TestRootMissKeepsNoLongKey: a root probe renders its key into miss's
// buffer, which a pooled request keeps for the next. A key past 16 KiB (a
// long constant) is still handed on whole, but its buffer is dropped at the
// next probe, so a pool does not hold it.
func TestRootMissKeepsNoLongKey(t *testing.T) {
	rt := clinicalTestRuntime(t)
	compile := func(ward string) *compiler.Plan {
		t.Helper()
		p := eide.NewProgram()
		if _, err := p.SQL("db-clinical", "SELECT pid FROM admissions WHERE ward = '"+ward+"'"); err != nil {
			t.Fatal(err)
		}
		return mustCompile(t, p.Graph(), 3)
	}
	long, short := compile(strings.Repeat("w", 20<<10)), compile("icu")
	ctx := context.Background()
	var miss RootMiss
	if _, _, ok := rt.ProbeRoot(ctx, long, rt.VersionVector(long.Touches), &miss); ok || cap(miss.key) <= 16<<10 || miss.vv == 0 {
		t.Fatalf("probe of the long key: hit %v, a %d-byte buffer, key held %v", ok, cap(miss.key), miss.vv > 0)
	}
	if _, _, err := rt.ExecuteAfterMiss(ctx, long, &miss); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := rt.ProbeRoot(ctx, short, rt.VersionVector(short.Touches), &miss); ok || cap(miss.key) > 16<<10 || miss.vv == 0 {
		t.Fatalf("probe of a short key after it: hit %v, a %d-byte buffer, key held %v", ok, cap(miss.key), miss.vv > 0)
	}
}
