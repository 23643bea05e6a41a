package compiler

import (
	"slices"
	"testing"

	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

func compileChain(t *testing.T, level int) *Plan {
	t.Helper()
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
		Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(3)},
	}}, scan)
	g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "v"}},
	}, f)
	plan, err := Compile(g, Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSubtreesChainCandidates(t *testing.T) {
	plan := compileChain(t, 0)
	if len(plan.Subtrees) == 0 {
		t.Fatal("chain plan has no subplan candidates")
	}
	// Outermost first: the first candidate's closure must be the largest.
	for i := 1; i < len(plan.Subtrees); i++ {
		if len(plan.Subtrees[i].Closure) > len(plan.Subtrees[i-1].Closure) {
			t.Fatal("candidates not ordered outermost first")
		}
	}
	whole := plan.Subtrees[0]
	if len(whole.Closure) != plan.Graph.Len() {
		t.Fatalf("outermost closure = %d nodes, want whole plan (%d)", len(whole.Closure), plan.Graph.Len())
	}
	if whole.Touches.ByEngine["db"] == nil {
		t.Fatalf("outermost candidate touches = %+v, want db scope", whole.Touches)
	}
	// Single-node subtrees (the bare scan) are not candidates.
	for _, st := range plan.Subtrees {
		if len(st.Closure) < 2 {
			t.Fatalf("single-node candidate %+v", st)
		}
	}
}

// TestSubtreesSharedPrefix is the sharing property the cache exploits: two
// plans differing only above a common prefix carry candidates with equal
// fingerprints for that prefix.
func TestSubtreesSharedPrefix(t *testing.T) {
	build := func(limit int64) *Plan {
		g := ir.NewGraph()
		scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
		sorted := g.Add(ir.OpSort, "db", map[string]any{
			"order_by": []relational.OrderItem{{Col: "v"}},
		}, scan)
		g.Add(ir.OpLimit, "db", map[string]any{"n": limit}, sorted)
		plan, err := Compile(g, Options{Level: 0})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b := build(5), build(7)
	shared := 0
	bByRoot := make(map[string]bool, len(b.Subtrees))
	for _, st := range b.Subtrees {
		bByRoot[st.Fingerprint] = true
	}
	for _, st := range a.Subtrees {
		if bByRoot[st.Fingerprint] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("LIMIT variants share no candidate fingerprints")
	}
	// The whole-plan candidates must NOT collide across different limits.
	if a.Subtrees[0].Fingerprint == b.Subtrees[0].Fingerprint &&
		len(a.Subtrees[0].Closure) == a.Graph.Len() && len(b.Subtrees[0].Closure) == b.Graph.Len() {
		t.Fatal("whole plans with different limits hashed equal")
	}
}

// TestSubtreesExcludeUncacheable: text-search and device-pinned nodes keep
// their subtrees out of the candidate set.
func TestSubtreesExcludeUncacheable(t *testing.T) {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
		Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(1)},
	}}, scan)
	// A text search (not version-scoped) joined beside the filter.
	docs := g.Add(ir.OpTextSearch, "docs", map[string]any{"query": "v", "k": int64(5)})
	g.Add(ir.OpHashJoin, "db", map[string]any{"left_col": "v", "right_col": "doc_id"}, f, docs)
	plan, err := Compile(g, Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subtrees) == 0 {
		t.Fatal("no candidate: the scan -> filter prefix is one")
	}
	for _, st := range plan.Subtrees {
		for _, id := range st.Closure {
			if plan.Graph.MustNode(id).Kind == ir.OpTextSearch {
				t.Fatal("text-search node inside a cache candidate")
			}
		}
	}

	// Pin the filter to explicit hardware: every candidate containing it
	// must disappear.
	pinned := compileChain(t, 0)
	for _, n := range pinned.Graph.Nodes() {
		if n.Kind == ir.OpFilter {
			n.Device = "fpga0"
		}
	}
	sts := subtreesOf(pinned.Graph)
	for _, st := range sts {
		for _, id := range st.Closure {
			if pinned.Graph.MustNode(id).Device == "fpga0" {
				t.Fatal("device-pinned node inside a cache candidate")
			}
		}
	}
}

// TestSubtreesClosedOnly: a node consumed both inside and outside a subtree
// disqualifies that subtree (serving it from cache would starve the outside
// consumer), while the enclosing closed subtree remains a candidate.
func TestSubtreesClosedOnly(t *testing.T) {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	f := g.Add(ir.OpFilter, "db", map[string]any{"pred": relational.Bin{
		Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(1)},
	}}, scan)
	// Two consumers of the filter: sort and limit, merged by a join.
	s := g.Add(ir.OpSort, "db", map[string]any{
		"order_by": []relational.OrderItem{{Col: "v"}},
	}, f)
	l := g.Add(ir.OpLimit, "db", map[string]any{"n": int64(3)}, f)
	g.Add(ir.OpHashJoin, "db", map[string]any{"left_col": "v", "right_col": "v"}, s, l)

	sts := subtreesOf(g)
	for _, st := range sts {
		if st.Root == s || st.Root == l {
			t.Fatalf("non-closed subtree rooted at %d is a candidate", st.Root)
		}
	}
	foundWhole := false
	for _, st := range sts {
		if len(st.Closure) == g.Len() {
			foundWhole = true
		}
	}
	if !foundWhole {
		t.Fatal("whole-plan closed subtree missing from candidates")
	}
}

// TestSubtreesCacheMigratedRowsOnce: on the Figure-2 plan the cache may hold
// the migration of pns to the ML engine, and so not pns itself, whose only
// reader that migration is — the same rows twice per key. The vitals summary
// and its migration stay one candidate. At L0 pns has a migration per reader,
// none of them closed, and pns stays the candidate.
func TestSubtreesCacheMigratedRowsOnce(t *testing.T) {
	roots := func(p *Plan) map[ir.NodeID][]ir.NodeID {
		out := map[ir.NodeID][]ir.NodeID{}
		for _, st := range p.Subtrees {
			out[st.Root] = st.Closure
		}
		return out
	}
	plan, err := Compile(figure2(t), Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	migs := migrations(plan)
	toML, vitals := migs[ir.OpHashJoin][0], migs[ir.OpTSWindow][0]
	pns := toML.Inputs[0]
	cands := roots(plan)
	if _, ok := cands[pns]; ok {
		t.Fatalf("pns (%d) is a candidate beside its migration (%d): %v", pns, toML.ID, cands)
	}
	if cl, ok := cands[toML.ID]; !ok || !slices.Contains(cl, pns) {
		t.Fatalf("pns's migration is not a candidate covering pns: %v", cands)
	}
	if cl := cands[vitals.ID]; !slices.Equal(cl, []ir.NodeID{vitals.Inputs[0], vitals.ID}) {
		t.Fatalf("vitals migration candidate closure = %v, want [tswindow migrate]", cl)
	}

	l0, err := Compile(figure2(t), Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	cands = roots(l0)
	for _, n := range migrations(l0)[ir.OpHashJoin] {
		if _, ok := cands[n.Inputs[0]]; !ok {
			t.Fatalf("L0: pns (%d), read by two migrations, is not a candidate: %v", n.Inputs[0], cands)
		}
		if _, ok := cands[n.ID]; ok {
			t.Fatalf("L0: migration %d of a shared pns is a candidate", n.ID)
		}
	}
}
