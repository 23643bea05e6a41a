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
// graph on every run (it was 73 while they did). (The race runtime allocates
// on its own account, hence the build tag.)
const chainExecuteAllocs = 42

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
// consumer index and per-node producer sets).
const wideExecuteAllocs = 125

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
	if rt.Metrics().Counter("core.exec.concurrent").Value() == 0 {
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
