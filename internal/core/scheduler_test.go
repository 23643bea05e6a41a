package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/relational"
	"polystorepp/internal/subplan"
)

// fanoutProgram builds a wide DAG: one scan feeding `width` independent
// filter->sort branches, half of them crossing to the ML engine so the plan
// carries migrations too. Every stage past the scan has `width` nodes, so
// the concurrent scheduler engages.
func fanoutProgram(width int) *ir.Graph {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	for i := 0; i < width; i++ {
		engine := "db"
		if i%2 == 1 {
			engine = "ml"
		}
		pred := relational.Bin{
			Op: relational.OpGt,
			L:  relational.ColRef{Name: "v"},
			R:  relational.Const{V: int64(i * 50)},
		}
		f := g.Add(ir.OpFilter, engine, map[string]any{"pred": pred}, scan)
		if engine == "db" {
			g.Add(ir.OpSort, "db", map[string]any{
				"order_by": []relational.OrderItem{{Col: "v"}},
			}, f)
		}
	}
	return g
}

// reportsEqual compares everything deterministic about two reports: the
// node set with simulated schedule, latency, energy and migration volume.
// Host wall times are excluded — they vary run to run by construction.
func reportsEqual(t *testing.T, got, want *Report) {
	t.Helper()
	if got.NodeCount != want.NodeCount || len(got.Nodes) != len(want.Nodes) || len(want.Nodes) != want.NodeCount {
		t.Fatalf("node count = %d (%d rows), want %d (%d rows): compare reports asked for their rows",
			got.NodeCount, len(got.Nodes), want.NodeCount, len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := got.Nodes[i], want.Nodes[i]
		if g.Node != w.Node || g.Kind != w.Kind || g.Engine != w.Engine ||
			g.Device != w.Device || g.Native != w.Native ||
			g.RowsIn != w.RowsIn || g.RowsOut != w.RowsOut {
			t.Fatalf("node %d mismatch:\n got %+v\nwant %+v", w.Node, g, w)
		}
		if math.Abs(g.Start-w.Start) > 1e-12 || math.Abs(g.Finish-w.Finish) > 1e-12 {
			t.Fatalf("node %d schedule: got [%v,%v], want [%v,%v]", w.Node, g.Start, g.Finish, w.Start, w.Finish)
		}
		if math.Abs(g.Sim.Seconds-w.Sim.Seconds) > 1e-12 || math.Abs(g.Sim.Joules-w.Sim.Joules) > 1e-12 {
			t.Fatalf("node %d sim cost: got %v, want %v", w.Node, g.Sim, w.Sim)
		}
	}
	if math.Abs(got.Latency-want.Latency) > 1e-12 {
		t.Fatalf("latency = %v, want %v", got.Latency, want.Latency)
	}
	if math.Abs(got.Energy-want.Energy) > 1e-12 {
		t.Fatalf("energy = %v, want %v", got.Energy, want.Energy)
	}
	if got.Migrations != want.Migrations || got.MigratedBytes != want.MigratedBytes {
		t.Fatalf("migrations = %d (%d bytes), want %d (%d bytes)",
			got.Migrations, got.MigratedBytes, want.Migrations, want.MigratedBytes)
	}
}

// resultsEqual compares sink row counts across executors.
func resultsEqual(t *testing.T, got, want *Results) {
	t.Helper()
	if len(got.Sinks) != len(want.Sinks) {
		t.Fatalf("sinks = %v, want %v", got.Sinks, want.Sinks)
	}
	for i, s := range want.Sinks {
		if got.Sinks[i] != s {
			t.Fatalf("sinks = %v, want %v", got.Sinks, want.Sinks)
		}
		if g, w := got.Values[s].Rows(), want.Values[s].Rows(); g != w {
			t.Fatalf("sink %d rows = %d, want %d", s, g, w)
		}
	}
}

// TestConcurrentMatchesSequential runs a wide fan-out multi-engine plan
// through both executors over identically seeded stores and requires the
// same results and byte-identical simulated reports.
func TestConcurrentMatchesSequential(t *testing.T) {
	plan, err := compiler.Compile(fanoutProgram(8), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := stageWidth(plan); w < 8 {
		t.Fatalf("plan width = %d, want >= 8 (fan-out not wide enough to engage the scheduler)", w)
	}

	seqRT := testRuntime(t, 3000, true)
	seqRT.sequential = true
	wantRes, wantRep, err := seqRT.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}

	conRT := testRuntime(t, 3000, true)
	gotRes, gotRep, err := conRT.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	if conRT.st.execConcurrent.Value() != 1 {
		t.Fatal("plan did not go through the concurrent scheduler")
	}
	resultsEqual(t, gotRes, wantRes)
	reportsEqual(t, gotRep, wantRep)
}

// TestConcurrentSharedRuntimeRace hammers one shared Runtime with the same
// wide plan from many goroutines (run under -race) and checks every
// execution reproduces the sequential baseline's report exactly.
func TestConcurrentSharedRuntimeRace(t *testing.T) {
	plan, err := compiler.Compile(fanoutProgram(6), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	baseRT := testRuntime(t, 1500, false)
	baseRT.sequential = true
	_, wantRep, err := baseRT.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(t, 1500, false)
	const goroutines = 16
	reps := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, rep, err := rt.Execute(askRows(context.Background()), plan)
			reps[i], errs[i] = rep, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		reportsEqual(t, reps[i], wantRep)
	}
}

// TestConcurrentWideFirstStage runs 1 536 nodes with a producer-less first
// stage of 768, so consumers become ready while most of their engine's
// producers still wait for a slot. Every node must run exactly once: the
// ready-queue scheduler this mode replaced once dispatched such a consumer
// twice (panic: close of closed channel).
func TestConcurrentWideFirstStage(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	g := ir.NewGraph()
	for i := 0; i < 768; i++ {
		scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
		pred := relational.Bin{
			Op: relational.OpGt,
			L:  relational.ColRef{Name: "v"},
			R:  relational.Const{V: int64(i)},
		}
		g.Add(ir.OpFilter, "db", map[string]any{"pred": pred}, scan)
	}
	plan, err := compiler.Compile(g, compiler.Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t, 200, false)
	for round := 0; round < 5; round++ {
		res, _, err := rt.Execute(context.Background(), plan)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Sinks) != 768 {
			t.Fatalf("round %d: sinks = %d", round, len(res.Sinks))
		}
	}
}

// TestConcurrentErrorMatchesSequential checks both executors surface the
// same earliest-in-topo-order failure on a plan with a broken branch.
func TestConcurrentErrorMatchesSequential(t *testing.T) {
	g := fanoutProgram(4)
	// A scan of a missing table fails during real execution.
	bad := g.Add(ir.OpScan, "db", map[string]any{"table": "missing"})
	g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "v"}},
	}, bad)
	plan, err := compiler.Compile(g, compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	seqRT := testRuntime(t, 500, false)
	seqRT.sequential = true
	_, _, seqErr := seqRT.Execute(context.Background(), plan)
	if seqErr == nil {
		t.Fatal("sequential executor did not fail")
	}
	conRT := testRuntime(t, 500, false)
	_, _, conErr := conRT.Execute(context.Background(), plan)
	if conErr == nil {
		t.Fatal("concurrent executor did not fail")
	}
	if !errors.Is(conErr, ErrExec) || conErr.Error() != seqErr.Error() {
		t.Fatalf("error mismatch:\n concurrent: %v\n sequential: %v", conErr, seqErr)
	}
}

// span is one host-time interval [start, end).
type span struct{ start, end time.Time }

// maxOverlap returns the most spans that share an instant.
func maxOverlap(spans []span) int {
	peak := 0
	for _, s := range spans {
		n := 0
		for _, o := range spans {
			if !o.start.After(s.start) && s.start.Before(o.end) {
				n++
			}
		}
		peak = max(peak, n)
	}
	return peak
}

// countingAdapter is an engine whose every call sleeps briefly and records
// its host interval, so a test reads the concurrency the scheduler allows per
// engine. A scan of table "missing" fails at once.
type countingAdapter struct {
	engine   string
	inflight atomic.Int32

	mu    sync.Mutex
	calls map[ir.NodeID]span
}

func newCountingAdapter(engine string) *countingAdapter {
	return &countingAdapter{engine: engine, calls: map[ir.NodeID]span{}}
}

func (a *countingAdapter) Engine() string { return a.engine }

func (a *countingAdapter) Execute(ctx context.Context, n *ir.Node, inputs []adapter.Value) (adapter.Value, adapter.ExecInfo, error) {
	start := time.Now()
	a.inflight.Add(1)
	defer func() {
		a.mu.Lock()
		a.calls[n.ID] = span{start, time.Now()}
		a.mu.Unlock()
		a.inflight.Add(-1)
	}()
	if n.StringAttr("table") == "missing" {
		return adapter.Value{}, adapter.ExecInfo{}, errors.New("no such table")
	}
	select {
	case <-time.After(5 * time.Millisecond):
	case <-ctx.Done():
		return adapter.Value{}, adapter.ExecInfo{}, ctx.Err()
	}
	if len(inputs) > 0 {
		return inputs[0], adapter.ExecInfo{}, nil
	}
	schema := cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64}, cast.Column{Name: "v", Type: cast.Int64})
	b := cast.NewBatch(schema, 256)
	for i := 0; i < 256; i++ {
		if err := b.AppendRow(int64(i), int64(i%7)); err != nil {
			return adapter.Value{}, adapter.ExecInfo{}, err
		}
	}
	return adapter.Value{Batch: b}, adapter.ExecInfo{}, nil
}

// spans returns the intervals of the calls made so far.
func (a *countingAdapter) spans() []span {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]span, 0, len(a.calls))
	for _, s := range a.calls {
		out = append(out, s)
	}
	return out
}

func (a *countingAdapter) called(id ir.NodeID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.calls[id]
	return ok
}

// TestSchedulerBoundsEachEngine runs 12 independent scans on each of two
// engines and 12 sorts on the second engine over one of the first engine's
// scans: at L0 that is 12 pipe migrations, all ready the moment that scan
// finishes. The failing variant adds a scan that fails at once, with a
// consumer on each engine. Each engine runs more than one call at a time and
// never more than engineWorkers; migrations run at most engineWorkers at a
// time, in slots of their own; a failed node's consumers never reach an
// adapter; and no adapter call is in flight once Execute returns.
func TestSchedulerBoundsEachEngine(t *testing.T) {
	program := func(fail bool) *compiler.Plan {
		g := ir.NewGraph()
		if fail { // first in topological order, so the driver returns early
			bad := g.Add(ir.OpScan, "a", map[string]any{"table": "missing"})
			g.Add(ir.OpSort, "a", nil, bad)
			g.Add(ir.OpSort, "b", nil, bad)
		}
		src := g.Add(ir.OpScan, "a", map[string]any{"table": "t"})
		for i := 0; i < 12; i++ {
			if i > 0 {
				g.Add(ir.OpScan, "a", map[string]any{"table": "t"})
			}
			g.Add(ir.OpScan, "b", map[string]any{"table": "t"})
			g.Add(ir.OpSort, "b", nil, src)
		}
		plan, err := compiler.Compile(g, compiler.Options{Level: 0, Transport: migrate.Pipe})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	runtimeOf := func() (*Runtime, *countingAdapter, *countingAdapter) {
		a, b := newCountingAdapter("a"), newCountingAdapter("b")
		rt := NewRuntime(hw.NewHostCPU(), WithSubplanCacheBytes(-1))
		rt.Register(a)
		rt.Register(b)
		return rt, a, b
	}
	for _, fail := range []bool{false, true} {
		rt, a, b := runtimeOf()
		_, rep, err := rt.Execute(context.Background(), program(fail))
		if in := a.inflight.Load() + b.inflight.Load(); in != 0 {
			t.Fatalf("fail=%v: %d adapter calls in flight after Execute returned", fail, in)
		}
		for _, ad := range []*countingAdapter{a, b} {
			// The failing run may return before a second call starts.
			if p := maxOverlap(ad.spans()); p > engineWorkers || (!fail && p < 2) {
				t.Fatalf("fail=%v: engine %s peaked at %d calls in flight, want 2..%d", fail, ad.engine, p, engineWorkers)
			}
		}
		if fail && (err == nil || !strings.Contains(err.Error(), "no such table")) {
			t.Fatalf("failing plan: err = %v", err)
		}
		if !fail && (err != nil || rep.Migrations != 12) {
			t.Fatalf("err = %v; want 12 migrations", err)
		}
	}

	// Without the driver stopping at the failure, await every node of the
	// failing plan. Migrations never reach an adapter, so their host
	// intervals come from the runs themselves.
	rt, a, b := runtimeOf()
	plan := program(true)
	ctx := context.Background()
	s := rt.dispatch(ctx, plan.Order, make([]subplan.NodeCost, len(plan.Order)), nil, nil)
	var migs []span
	for k := range plan.Order {
		run, err := s.await(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if run.err == nil && run.Migration != nil {
			migs = append(migs, span{run.hostStart, run.hostStart.Add(run.wall)})
		}
	}
	s.stop()
	for _, n := range plan.Order {
		if n.StringAttr("table") != "missing" {
			continue
		}
		for _, c := range plan.Graph.Consumers(n.ID) {
			for _, id := range append([]ir.NodeID{c}, plan.Graph.Consumers(c)...) {
				if a.called(id) || b.called(id) {
					t.Fatalf("node %d, downstream of the failed scan %d, reached its adapter", id, n.ID)
				}
			}
		}
	}
	if p := maxOverlap(migs); len(migs) != 12 || p > engineWorkers {
		t.Fatalf("%d migrations, at most %d at once; want 12, at most %d", len(migs), p, engineWorkers)
	}
	// Engine b is full for as long as its scans run; migrations to it must
	// not wait for its slots.
	if p := maxOverlap(append(migs, b.spans()...)); p <= engineWorkers {
		t.Fatalf("migrations and engine b peaked at %d together: migrations waited for the engine's slots", p)
	}
}

// TestConcurrentHonorsContext mirrors TestExecuteHonorsContext for the
// concurrent path.
func TestConcurrentHonorsContext(t *testing.T) {
	rt := testRuntime(t, 100, false)
	plan, err := compiler.Compile(fanoutProgram(4), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rt.Execute(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: %v", err)
	}
}

// TestChargeKernelPinnedDevice checks an explicit device annotation is
// honored: the work lands on the named accelerator even when the cost model
// would have kept it on the host.
func TestChargeKernelPinnedDevice(t *testing.T) {
	rt := testRuntime(t, 64, true) // 64 rows: auto choice would stay on host
	g := sortProgram()
	plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpSort {
			n.Device = hw.NewFPGA().Name
		}
	}
	_, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	fpga := hw.NewFPGA().Name
	found := false
	for _, n := range rep.Nodes {
		if n.Kind == ir.OpSort {
			found = true
			if n.Device != fpga {
				t.Fatalf("pinned sort ran on %q, want %q", n.Device, fpga)
			}
		}
	}
	if !found {
		t.Fatal("no sort node in report")
	}
	if offloads(t, rt, fpga) == 0 {
		t.Fatal("pinned offload not counted")
	}
}

// TestChargeKernelUnknownDevice checks naming a device the deployment does
// not have fails the query instead of silently costing on the host.
func TestChargeKernelUnknownDevice(t *testing.T) {
	rt := testRuntime(t, 64, true)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpSort {
			n.Device = "tpu-v9000"
		}
	}
	_, _, err = rt.Execute(context.Background(), plan)
	if !errors.Is(err, ErrNoDevice) {
		t.Fatalf("unknown device error = %v, want ErrNoDevice", err)
	}
}

// TestChargeKernelHostPin checks pinning to the host device by name stays
// on the host without error.
func TestChargeKernelHostPin(t *testing.T) {
	rt := testRuntime(t, 400_000, true) // big enough that auto would offload
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewHostCPU().Name
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpSort {
			n.Device = host
		}
	}
	_, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Nodes {
		if n.Kind == ir.OpSort && n.Device != host {
			t.Fatalf("host-pinned sort ran on %q", n.Device)
		}
	}
}

// TestPlanWidthFastPath checks chain-shaped plans skip the scheduler.
func TestPlanWidthFastPath(t *testing.T) {
	rt := testRuntime(t, 100, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if rt.st.execConcurrent.Value() != 0 {
		t.Fatal("chain plan went through the concurrent scheduler")
	}
	if rt.st.execSequential.Value() != 1 {
		t.Fatal("chain plan not counted as sequential")
	}
}

// TestRuntimeDataVersion checks the runtime's aggregate version moves on
// store mutations.
func TestRuntimeDataVersion(t *testing.T) {
	store := testStore(t, 10)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	rt.Register(adapter.NewML("ml", 1)) // pure adapter: no version contribution

	v0 := rt.DataVersion()
	tb, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(int64(10_000), int64(1)); err != nil {
		t.Fatal(err)
	}
	if v1 := rt.DataVersion(); v1 <= v0 {
		t.Fatalf("version did not advance on insert: %d -> %d", v0, v1)
	}
}

// askRows asks an execution under ctx for its Report's rows.
func askRows(ctx context.Context) context.Context { return WithNodeReports(ctx) }
