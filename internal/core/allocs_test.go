//go:build !race

package core

import (
	"context"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// chainExecuteAllocs is what Runtime.Execute allocates per run on the plan
// below. The inline dispatch mode of the one driver is held to it: a width-1
// plan allocates no queue, goroutine or per-node scheduling state, and the
// topological order and the sinks come from the compiled plan, not from the
// graph on every run (it was 73 while they did). Its nodes run into one
// reused run over one inputs buffer, and their records share one slab (it
// was 42 with a run and its record allocated per node, and a device map per
// costed node; 34 while every execution built its report's rows and its
// nodes' labels; 30 while its Results and Report were two allocations).
// (The race runtime allocates on its own account, hence the build tag.)
const chainExecuteAllocs = 29

// TestChainExecuteAllocBudget runs scan -> filter -> sort — a chain, so the
// inline mode — with the subplan cache off, so every run executes.
func TestChainExecuteAllocBudget(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU(), WithSubplanCacheBytes(-1))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(testStore(t, 200))))
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	filter := g.Add(ir.OpFilter, "db", map[string]any{
		"pred": relational.Bin{Op: relational.OpLt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(500)}},
	}, scan)
	g.Add(ir.OpSort, "db", map[string]any{"order_by": []relational.OrderItem{{Col: "v"}}}, filter)
	plan, err := compiler.Compile(g, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Graph.Len() != 3 || stageWidth(plan) != 1 {
		t.Fatalf("plan has %d nodes, width %d; want a 3-node chain", plan.Graph.Len(), stageWidth(plan))
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > chainExecuteAllocs {
		t.Fatalf("Execute on a 3-node chain: %.0f allocs/run, ceiling %d", allocs, chainExecuteAllocs)
	}
	t.Logf("%.0f allocs/run", allocs)
}

// wideExecuteAllocs is what Runtime.Execute allocates per run on a width-2
// fanoutProgram: the concurrent mode's goroutine per node, one done channel
// each and one slot channel per engine (it was 140 with worker queues, a
// consumer index and per-node producer sets, 125 while the driver kept its
// values and finish times in maps, 123 while each node's run and record
// were allocated by its goroutine, 118 while every execution built its
// report's rows and its nodes' labels, and 109 while its Results and Report
// were two allocations).
const wideExecuteAllocs = 108

// TestWideExecuteAllocBudget runs a width-2 fanoutProgram — scan, a filter on
// each of two engines, a migration and a sort, so the concurrent mode — with
// the subplan cache off, so every run executes.
func TestWideExecuteAllocBudget(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU(), WithSubplanCacheBytes(-1))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(testStore(t, 200))))
	rt.Register(adapter.NewML("ml", 1))
	plan, err := compiler.Compile(fanoutProgram(2), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stageWidth(plan) != 2 {
		t.Fatalf("plan width %d, want 2", stageWidth(plan))
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	if rt.st.execConcurrent.Value() == 0 {
		t.Fatal("the plan did not run in the concurrent mode")
	}
	if allocs > wideExecuteAllocs {
		t.Fatalf("Execute on a width-2 fan-out: %.0f allocs/run, ceiling %d", allocs, wideExecuteAllocs)
	}
	t.Logf("%.0f allocs/run", allocs)
}

// TestAutoPlacementRefusalAllocatesNothing: placing an "auto" kernel call
// asks every accelerator for its cost, and one without the kernel class
// refuses. The refusal is dropped, so it must not be built per call (it was a
// fmt.Errorf, some 125 per cross_engine request).
func TestAutoPlacementRefusalAllocatesNothing(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU(), WithSubplanCacheBytes(-1), WithAccelerators(hw.Coprocessor, hw.NewTPU()))
	n := &ir.Node{Kind: ir.OpFilter, Engine: "db", Device: "auto"}
	call := adapter.KernelCall{Class: hw.KFilter, Work: hw.Work{Items: 1000, Bytes: 8000}, OutBytes: 8000}
	if _, err := rt.accels[0].OffloadCost(rt.mode, call.Class, call.Work, call.OutBytes); err == nil {
		t.Fatal("the TPU model runs filters; pick a class it lacks")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if dev, _, err := rt.chargeKernel(n, call); err != nil || dev != rt.host {
			t.Fatalf("placed on %v: %v", dev, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("auto placement past a refusing accelerator: %.0f allocs/call, want 0", allocs)
	}
}

// servedWideExecuteAllocs is what Runtime.Execute allocates per run on
// hashJoinCase's plan (over a runtime with the subplan cache on) — two scans joined, then sorted and projected, so its
// first stage is two nodes wide — when a subplan hit serves its root
// subtree, the whole plan. No node runs, so the driver dispatches nothing:
// no goroutine, channel or run for any node. It was 53 while the plan's
// width chose the dataflow and every served node got all three, 21 while
// the probe built a key string and a version vector per candidate, 9 while
// each execution made its probe, node table and miss list afresh, 6
// while every execution built its report's rows, and 5 while its finish
// times and device ledger were its own and its Results and Report two
// allocations: now they are its values and one Results/Report pair.
const servedWideExecuteAllocs = 2

// TestServedWideExecuteAllocBudget warms the subplan cache with the plan,
// then measures executions that are served whole.
func TestServedWideExecuteAllocBudget(t *testing.T) {
	_, g := hashJoinCase(t)
	rt := NewRuntime(hw.NewHostCPU(), WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(loweringStore(t))))
	plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	if stageWidth(plan) < 2 {
		t.Fatalf("plan width %d, want a wide plan", stageWidth(plan))
	}
	ctx := context.Background()
	for range 2 { // publish, then the first hit gathers the entry
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}
	conc, served := rt.st.execConcurrent.Value(), rt.st.subplanNodesServed.Value()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := rt.st.subplanNodesServed.Value()-served, int64(21*plan.Graph.Len()); got != want {
		t.Fatalf("%d nodes served over 21 executions of %d nodes: the root subtree was not a hit", got, plan.Graph.Len())
	}
	if rt.st.execConcurrent.Value() != conc {
		t.Fatal("a plan served whole was dispatched to the dataflow")
	}
	if allocs > servedWideExecuteAllocs {
		t.Fatalf("Execute served whole: %.0f allocs/run, ceiling %d", allocs, servedWideExecuteAllocs)
	}
	t.Logf("%.0f allocs/run", allocs)
}

// TestProbeRootAllocBudget: on hashJoinCase's plan a root-probe hit returns
// what Execute returns for the plan served whole, within Execute's budget
// for it, and dispatches nothing; a miss — before the plan is published, and
// after a write to a table it reads — allocates nothing and counts nothing.
func TestProbeRootAllocBudget(t *testing.T) {
	_, g := hashJoinCase(t)
	rt := NewRuntime(hw.NewHostCPU(), WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(loweringStore(t))))
	plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var rootMiss RootMiss // its buffer grows to the key on the first probe, the one AllocsPerRun does not count
	miss := func(when string) {
		t.Helper()
		counted := rt.st.subplanPlansProbed.Value() + rt.st.subplanMisses.Value() + rt.st.subplanHits.Value()
		vv := rt.VersionVector(plan.Touches)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, ok := rt.ProbeRoot(ctx, plan, vv, &rootMiss); ok {
				t.Fatalf("%s: the root probe hit", when)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a root-probe miss allocates %.0f times, want 0", when, allocs)
		}
		if rt.st.subplanPlansProbed.Value()+rt.st.subplanMisses.Value()+rt.st.subplanHits.Value() != counted {
			t.Fatalf("%s: a root-probe miss was counted", when)
		}
	}
	miss("before publication")
	var wantRes *Results
	var wantRep *Report
	for range 2 { // publish, then the plan is served whole
		if wantRes, wantRep, err = rt.Execute(askRows(ctx), plan); err != nil {
			t.Fatal(err)
		}
	}
	seq, conc, reused := rt.st.execSequential.Value(), rt.st.execConcurrent.Value(), rt.st.subplanPlansReused.Value()
	vv := rt.VersionVector(plan.Touches)
	res, rep, ok := rt.ProbeRoot(askRows(ctx), plan, vv, &rootMiss)
	if !ok {
		t.Fatal("the root probe missed a published plan")
	}
	batchesEqual(t, res, wantRes)
	reportsEqual(t, rep, wantRep)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, ok := rt.ProbeRoot(ctx, plan, vv, &rootMiss); !ok {
			t.Fatal("the root probe missed")
		}
	})
	if got := rt.st.subplanPlansReused.Value() - reused; got != 22 {
		t.Fatalf("%d plans reused over 22 hits", got)
	}
	if rt.st.execSequential.Value() != seq || rt.st.execConcurrent.Value() != conc {
		t.Fatal("a root-probe hit was dispatched")
	}
	if allocs > servedWideExecuteAllocs {
		t.Fatalf("root-probe hit: %.0f allocs/run, ceiling %d", allocs, servedWideExecuteAllocs)
	}
	t.Logf("%.0f allocs/hit", allocs)

	if err := rt.Ingest(ctx, "db", adapter.Ingest{Table: "visits", Row: []any{int64(5000), int64(1), int64(1)}}); err != nil {
		t.Fatal(err)
	}
	miss("after a write to visits")
}
