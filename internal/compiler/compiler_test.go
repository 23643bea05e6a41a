package compiler

import (
	"errors"
	"slices"
	"testing"

	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/relational"
)

// crossEngineGraph: scan(db) -> filter(ml) -> kmeans(ml).
func crossEngineGraph() *ir.Graph {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	filt := g.Add(ir.OpFilter, "ml", map[string]any{
		"pred": relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "x"}, R: relational.Const{V: int64(5)}},
	}, scan)
	g.Add(ir.OpKMeans, "ml", map[string]any{"cols": []string{"x"}, "k": int64(2), "iters": int64(3)}, filt)
	return g
}

func countKind(g *ir.Graph, k ir.OpKind) int {
	n := 0
	for _, nd := range g.Nodes() {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

func TestCompileInsertsMigrations(t *testing.T) {
	plan, err := Compile(crossEngineGraph(), Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(plan.Graph, ir.OpMigrate); got != 1 {
		t.Fatalf("migrations = %d, want 1 (scan->filter edge)", got)
	}
	// L0 leaves the filter on ml: migration carries the unfiltered scan.
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpFilter && n.Engine != "ml" {
			t.Fatal("L0 must not push the filter down")
		}
	}
}

func TestL1PushdownMovesFilter(t *testing.T) {
	plan, err := Compile(crossEngineGraph(), Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpFilter && n.Engine != "db" {
			t.Fatalf("filter not pushed down: engine=%s", n.Engine)
		}
	}
	// Migration now sits after the filter.
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpMigrate {
			in := plan.Graph.MustNode(n.Inputs[0])
			if in.Kind != ir.OpFilter {
				t.Fatalf("migrate input is %s, want filter", in.Kind)
			}
		}
	}
}

func TestL2SelectsIndexScan(t *testing.T) {
	plan, err := Compile(crossEngineGraph(), Options{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(plan.Graph, ir.OpIndexScan); got != 1 {
		t.Fatalf("index scans = %d, want 1:\n%s", got, plan.Graph)
	}
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpIndexScan {
			if pred, _ := n.Attr("pred").(relational.Bin); pred.String() != "(x > 5)" {
				t.Fatalf("scan carries predicate %v, want the filter's (x > 5)", n.Attr("pred"))
			}
		}
	}
	// Below L2 nothing is pushed: the scan stays a scan.
	if plan, err = Compile(crossEngineGraph(), Options{Level: 1}); err != nil || countKind(plan.Graph, ir.OpIndexScan) != 0 {
		t.Fatalf("L1 plan has index scans (err %v):\n%s", err, plan.Graph)
	}
}

// TestL2PushesOnlyOntoItsOwnScan: the predicate reaches a scan the filter
// reads directly and alone — not through a join, and never a scan another
// consumer also reads, which a seek would starve.
func TestL2PushesOnlyOntoItsOwnScan(t *testing.T) {
	pred := relational.Bin{Op: relational.OpLt, L: relational.ColRef{Name: "x"}, R: relational.Const{V: int64(5)}}
	joined := ir.NewGraph()
	base := joined.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	build := joined.Add(ir.OpScan, "db", map[string]any{"table": "u"})
	join := joined.Add(ir.OpHashJoin, "db", map[string]any{"left_col": "x", "right_col": "y"}, base, build)
	joined.Add(ir.OpFilter, "db", map[string]any{"pred": pred}, join)

	shared := ir.NewGraph()
	scan := shared.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	shared.Add(ir.OpFilter, "db", map[string]any{"pred": pred}, scan)
	shared.Add(ir.OpLimit, "db", map[string]any{"n": int64(3)}, scan)

	for name, g := range map[string]*ir.Graph{"filter over join": joined, "scan with two consumers": shared} {
		plan, err := Compile(g, Options{Level: 2})
		if err != nil || countKind(plan.Graph, ir.OpIndexScan) != 0 {
			t.Fatalf("%s: a scan was narrowed (err %v):\n%s", name, err, plan.Graph)
		}
	}
}

func TestTransportByLevel(t *testing.T) {
	p0, err := Compile(crossEngineGraph(), Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Compile(crossEngineGraph(), Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	trOf := func(p *Plan) migrate.Transport {
		for _, n := range p.Graph.Nodes() {
			if n.Kind == ir.OpMigrate {
				return migrate.Transport(n.IntAttr("transport"))
			}
		}
		return 0
	}
	if trOf(p0) != migrate.CSV || trOf(p3) != migrate.Pipe {
		t.Fatalf("transports = %v / %v", trOf(p0), trOf(p3))
	}
	// Explicit override wins.
	pr, err := Compile(crossEngineGraph(), Options{Level: 0, Transport: migrate.RDMA})
	if err != nil {
		t.Fatal(err)
	}
	if trOf(pr) != migrate.RDMA {
		t.Fatalf("override transport = %v", trOf(pr))
	}
}

func TestAccelMarksDevices(t *testing.T) {
	plan, err := Compile(crossEngineGraph(), Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, n := range plan.Graph.Nodes() {
		if n.Device == "auto" {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no nodes marked for offload")
	}
	plain, err := Compile(crossEngineGraph(), Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range plain.Graph.Nodes() {
		if n.Device == "auto" {
			t.Fatal("offload marked without Accel option")
		}
	}
}

func TestDeadNodeElimination(t *testing.T) {
	g := crossEngineGraph()
	// A second chain ending in its own sink: every node feeds a sink, so
	// elimination keeps all of both chains.
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t2"})
	filt := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Const{V: true}}, scan)
	g.Add(ir.OpProject, "db", map[string]any{"items": []relational.ProjItem{}}, filt)
	plan, err := Compile(g, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[ir.OpKind]int{ir.OpScan: 2, ir.OpFilter: 2, ir.OpProject: 1, ir.OpKMeans: 1} {
		if got := countKind(plan.Graph, kind); got != want {
			t.Errorf("%v nodes after L1 = %d, want %d", kind, got, want)
		}
	}
}

func TestCompileRejectsInvalidGraph(t *testing.T) {
	g := ir.NewGraph()
	g.Add(ir.OpFilter, "db", nil, ir.NodeID(99))
	if _, err := Compile(g, Options{}); !errors.Is(err, ErrCompile) {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	g := crossEngineGraph()
	before := g.String()
	if _, err := Compile(g, Options{Level: 3, Accel: true}); err != nil {
		t.Fatal(err)
	}
	if g.String() != before {
		t.Fatal("Compile mutated its input graph")
	}
}

// figure2 builds the Figure-2 clinical pipeline: the joined features pns
// (db) feed train and predict on ml, and the vitals summary (ts) is joined
// in on db.
func figure2(t *testing.T) *ir.Graph {
	t.Helper()
	p := eide.NewProgram()
	if _, err := eide.BuildClinicalPipeline(p, eide.Binding{Relational: "db", Timeseries: "ts", ML: "ml"}); err != nil {
		t.Fatal(err)
	}
	return p.Graph()
}

// migrations returns the plan's migrate nodes by the kind of their input.
func migrations(p *Plan) map[ir.OpKind][]*ir.Node {
	out := map[ir.OpKind][]*ir.Node{}
	for _, n := range p.Graph.Nodes() {
		if n.Kind == ir.OpMigrate {
			in := p.Graph.MustNode(n.Inputs[0]).Kind
			out[in] = append(out[in], n)
		}
	}
	return out
}

// From L1 on, train and predict read one migration of pns, and it carries
// the union of the columns they declare (features and label), once each.
func TestOneMigrationPerProducerAndEngine(t *testing.T) {
	for _, level := range []int{1, 3} {
		plan, err := Compile(figure2(t), Options{Level: level, Accel: true})
		if err != nil {
			t.Fatal(err)
		}
		migs := migrations(plan)
		if countKind(plan.Graph, ir.OpMigrate) != 2 || len(migs[ir.OpHashJoin]) != 1 || len(migs[ir.OpTSWindow]) != 1 {
			t.Fatalf("L%d: migrations %v, want one of pns and one of the vitals summary:\n%s", level, migs, plan.Graph)
		}
		toML := migs[ir.OpHashJoin][0]
		readers := plan.Graph.Consumers(toML.ID)
		if len(readers) != 2 || plan.Graph.MustNode(readers[0]).Kind != ir.OpTrain || plan.Graph.MustNode(readers[1]).Kind != ir.OpPredict {
			t.Fatalf("L%d: pns migration read by %v, want train and predict", level, readers)
		}
		want := []string{"age", "gender_male", "hr_mean", "icu_hours", "long_stay", "n_stays", "prior_visits", "spo2_mean"}
		if got, _ := toML.Attr("cols").([]string); !slices.Equal(got, want) {
			t.Fatalf("L%d: pns migration carries %v, want %v", level, got, want)
		}
		// The vitals summary's consumer is a join, which declares nothing.
		if cols := migs[ir.OpTSWindow][0].Attr("cols"); cols != nil {
			t.Fatalf("L%d: vitals migration pruned to %v", level, cols)
		}
	}

	// One producer read on two other engines moves once to each.
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	g.Add(ir.OpKMeans, "ml", map[string]any{"cols": []string{"x"}, "k": int64(2)}, scan)
	g.Add(ir.OpKMeans, "ml", map[string]any{"cols": []string{"t.y"}, "k": int64(2)}, scan)
	g.Add(ir.OpKMeans, "ml2", map[string]any{"cols": []string{"z"}, "k": int64(2)}, scan)
	plan, err := Compile(g, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	to := map[string][]string{}
	for _, n := range migrations(plan)[ir.OpScan] {
		to[n.StringAttr("to")], _ = n.Attr("cols").([]string)
	}
	if len(to) != 2 || countKind(plan.Graph, ir.OpMigrate) != 2 || !slices.Equal(to["ml"], []string{"t.y", "x"}) || !slices.Equal(to["ml2"], []string{"z"}) {
		t.Fatalf("migrations by destination %v:\n%s", to, plan.Graph)
	}
}

// L0, the naive baseline E08 ablates against, migrates once per consuming
// edge and every column each time.
func TestL0MigratesEveryEdgeInFull(t *testing.T) {
	plan, err := Compile(figure2(t), Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	migs := migrations(plan)
	if len(migs[ir.OpHashJoin]) != 2 || len(migs[ir.OpTSWindow]) != 1 {
		t.Fatalf("L0 migrations %v, want pns twice and the vitals summary once", migs)
	}
	for _, n := range plan.Graph.Nodes() {
		if n.Kind == ir.OpMigrate && n.Attr("cols") != nil {
			t.Fatalf("L0 migration %d pruned to %v", n.ID, n.Attr("cols"))
		}
	}
}

// A consumer that does not declare what it reads — a filter hosted on the ML
// engine — keeps every column of the migration it shares.
func TestUndeclaredReaderKeepsEveryColumn(t *testing.T) {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	g.Add(ir.OpKMeans, "ml", map[string]any{"cols": []string{"x"}, "k": int64(2)}, scan)
	g.Add(ir.OpFilter, "ml", map[string]any{
		"pred": relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "y"}, R: relational.Const{V: int64(5)}},
	}, scan)
	plan, err := Compile(g, Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	migs := migrations(plan)[ir.OpScan]
	if len(migs) != 1 || len(plan.Graph.Consumers(migs[0].ID)) != 2 {
		t.Fatalf("want one migration read by kmeans and the filter:\n%s", plan.Graph)
	}
	if cols := migs[0].Attr("cols"); cols != nil {
		t.Fatalf("migration pruned to %v beside a filter that reads it", cols)
	}
}
