package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

func testStore(t testing.TB, rows int) *relational.Store {
	t.Helper()
	s := relational.NewStore("db")
	schema := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "v", Type: cast.Int64},
	)
	tb, err := s.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := cast.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(int64(i), rng.Int63n(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	return s
}

func testRuntime(t testing.TB, rows int, accel bool, opts ...Option) *Runtime {
	t.Helper()
	if accel {
		opts = append(opts, WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU()))
	}
	rt := NewRuntime(hw.NewHostCPU(), opts...)
	rt.Register(adapter.NewRelational("db", relational.NewEngine(testStore(t, rows))))
	rt.Register(adapter.NewML("ml", 1))
	return rt
}

func sortProgram() *ir.Graph {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "v"}},
	}, scan)
	return g
}

func TestExecuteSimplePlan(t *testing.T) {
	rt := testRuntime(t, 1000, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	out := res.First().Batch
	if out == nil || out.Rows() != 1000 {
		t.Fatalf("rows = %v", out)
	}
	vs, _ := out.Ints(1)
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			t.Fatal("not sorted")
		}
	}
	if rep.Latency <= 0 || len(rep.Nodes) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "sort") {
		t.Fatal("report render missing sort")
	}
}

func TestMissingAdapter(t *testing.T) {
	rt := testRuntime(t, 10, false)
	g := ir.NewGraph()
	g.Add(ir.OpScan, "ghost", map[string]any{"table": "t"})
	plan, err := compiler.Compile(g, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Execute(context.Background(), plan); !errors.Is(err, ErrNoAdapter) {
		t.Fatalf("missing adapter: %v", err)
	}
}

func TestOffloadCountsInMetrics(t *testing.T) {
	// Attach only the FPGA so the winning device is deterministic.
	rt := NewRuntime(hw.NewHostCPU(), WithAccelerators(hw.Coprocessor, hw.NewFPGA()))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(testStore(t, 400_000))))
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if offloads(t, rt, hw.NewFPGA().Name) == 0 {
		t.Fatal("expected FPGA offloads")
	}
}

// offloads reads the offload counter of the attached accelerator named name.
func offloads(t *testing.T, rt *Runtime, name string) int64 {
	t.Helper()
	for d, c := range rt.st.offloads {
		if d.Name == name {
			return c.Value()
		}
	}
	t.Fatalf("no accelerator %s is attached", name)
	return 0
}

func TestSmallWorkStaysOnHost(t *testing.T) {
	rt := testRuntime(t, 64, true)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Nodes {
		if n.Kind == ir.OpSort && n.Device != "cpu-server" {
			t.Fatalf("64-row sort offloaded to %s", n.Device)
		}
	}
}

func TestMigrationNodeExecution(t *testing.T) {
	rt := testRuntime(t, 2000, false)
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	g.Add(ir.OpKMeans, "ml", map[string]any{
		"cols": []string{"v"}, "k": int64(2), "iters": int64(3),
	}, scan)
	plan, err := compiler.Compile(g, compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 || rep.MigratedBytes <= 0 {
		t.Fatalf("migrations = %d (%d bytes)", rep.Migrations, rep.MigratedBytes)
	}
	if res.First().Batch == nil || res.First().Batch.Rows() != 2000 {
		t.Fatal("kmeans output wrong")
	}
}

func TestSimulatedSchedulingRespectsDependencies(t *testing.T) {
	rt := testRuntime(t, 5000, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := rt.Execute(askRows(context.Background()), plan)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ir.NodeID]NodeReport{}
	for _, n := range rep.Nodes {
		byID[n.Node] = n
	}
	for _, n := range plan.Graph.Nodes() {
		for _, in := range n.Inputs {
			if byID[n.ID].Start+1e-15 < byID[in].Finish {
				t.Fatalf("node %d started (%v) before input %d finished (%v)",
					n.ID, byID[n.ID].Start, in, byID[in].Finish)
			}
		}
	}
}

func TestExecuteHonorsContext(t *testing.T) {
	rt := testRuntime(t, 10, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rt.Execute(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: %v", err)
	}
}

func TestResultsFirstEmpty(t *testing.T) {
	var res Results
	if res.First().Batch != nil {
		t.Fatal("empty Results.First should be zero")
	}
}

// TestBoundNodeReadsBoundValues: an execution's copy of a node whose
// attributes hold holes shares the plan node's Attrs and reads the values
// bound for it through Attr, and binding leaves the plan's own nodes as
// they were — the plan is shared by every execution of its shape.
func TestBoundNodeReadsBoundValues(t *testing.T) {
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT id, value FROM events WHERE id >= 7 ORDER BY value DESC LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(plan.Order))
	for i, n := range plan.Order {
		before[i] = fmt.Sprintf("%#v", *n)
	}
	exec := plan.WithBinds([]any{int64(9), int64(4)})
	order, _, err := bindNodes(exec, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	bound := 0
	for i, n := range plan.Order {
		cp := order[i]
		keys := plan.Bound[n.ID]
		if len(keys) == 0 {
			if cp != n {
				t.Fatalf("node %d holds no hole, yet was copied", n.ID)
			}
			continue
		}
		bound++
		if cp == n || reflect.ValueOf(cp.Attrs).Pointer() != reflect.ValueOf(n.Attrs).Pointer() {
			t.Fatalf("node %d: the bound node is the plan's own, or does not share its Attrs", n.ID)
		}
		for _, k := range keys {
			want, err := relational.Bind(n.Attrs[k], exec.Binds)
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.Attr(k); !reflect.DeepEqual(got, want) || len(ir.AppendSlots(nil, got)) != 0 {
				t.Fatalf("node %d: Attr(%q) = %#v, want %#v", n.ID, k, got, want)
			}
			if len(ir.AppendSlots(nil, n.Attr(k))) == 0 {
				t.Fatalf("node %d: the plan's own Attr(%q) = %#v lost its holes", n.ID, k, n.Attr(k))
			}
		}
		if cp.Attr("no such attribute") != nil {
			t.Fatalf("node %d: an absent attribute reads non-nil", n.ID)
		}
	}
	if bound == 0 {
		t.Fatal("no node of the plan holds a hole")
	}
	for i, n := range plan.Order {
		if after := fmt.Sprintf("%#v", *n); after != before[i] {
			t.Fatalf("binding changed the plan's node %d:\n%s\nwas\n%s", n.ID, after, before[i])
		}
	}
	if got := order[len(order)-1].Attr("n"); got != int64(4) {
		t.Fatalf("the limit reads n = %#v, want 4", got)
	}
}
