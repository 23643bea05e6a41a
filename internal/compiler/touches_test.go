package compiler

import (
	"reflect"
	"testing"

	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
)

func TestTouchesOfSQLProgram(t *testing.T) {
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT pid FROM patients JOIN visits ON pid = pid WHERE age > 3"); err != nil {
		t.Fatal(err)
	}
	got := TouchesOf(p.Graph())
	want := map[string][]string{"db": {"patients", "visits"}}
	if !reflect.DeepEqual(got.ByEngine, want) {
		t.Fatalf("ByEngine = %v, want %v", got.ByEngine, want)
	}
}

func TestTouchesOfMultiEngine(t *testing.T) {
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT pid FROM patients"); err != nil {
		t.Fatal(err)
	}
	p.Graph().Add(ir.OpTSWindow, "ts", map[string]any{"series_prefix": "vitals/"})
	p.KVScan("kv", "session/")
	got := TouchesOf(p.Graph())
	if tables := got.ByEngine["db"]; !reflect.DeepEqual(tables, []string{"patients"}) {
		t.Fatalf("db tables = %v", tables)
	}
	for _, e := range []string{"ts", "kv"} {
		if v, ok := got.ByEngine[e]; !ok || v != nil {
			t.Fatalf("engine %s: = %v (present %v), want whole-engine nil", e, v, ok)
		}
	}
	if len(got.ByEngine) != 3 {
		t.Fatalf("touched engines = %v, want db, kv and ts", got.ByEngine)
	}
}

// TestTouchesPureEngineContributesNothing checks an engine hosting only pure
// dataflow operators (e.g. a filter pushed onto the ML runtime) records an
// empty — not nil — table set, so it adds no version dependency.
func TestTouchesPureEngineContributesNothing(t *testing.T) {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "patients"})
	g.Add(ir.OpFilter, "ml", map[string]any{}, scan)
	got := TouchesOf(g)
	if v, ok := got.ByEngine["ml"]; !ok || v == nil || len(v) != 0 {
		t.Fatalf("ml = %v (present %v), want empty non-nil set", v, ok)
	}
}

func TestCompileRecordsTouches(t *testing.T) {
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT pid FROM patients WHERE age > 60"); err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(p.Graph(), Options{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The compiled graph's scan may have become an index scan; what the plan
	// records (on its outermost subplan candidate) still names the table.
	if tables := plan.Subtrees[0].Touches.ByEngine["db"]; !reflect.DeepEqual(tables, []string{"patients"}) {
		t.Fatalf("plan touches db tables = %v, want [patients]", tables)
	}
	if !reflect.DeepEqual(plan.Touches, TouchesOf(p.Graph())) {
		t.Fatalf("Plan.Touches = %v, want TouchesOf the input %v", plan.Touches, TouchesOf(p.Graph()))
	}

	// Pushdown moves the ml filter onto db; Plan.Touches is still the
	// program's as written.
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "patients"})
	g.Add(ir.OpFilter, "ml", map[string]any{}, scan)
	if plan, err = Compile(g, Options{Level: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := TouchesOf(plan.Graph).ByEngine["ml"]; ok {
		t.Fatal("the filter was not pushed down")
	}
	if !reflect.DeepEqual(plan.Touches, TouchesOf(g)) {
		t.Fatalf("Plan.Touches = %v, want TouchesOf the input %v", plan.Touches, TouchesOf(g))
	}
}
