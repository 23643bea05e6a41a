package ir

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func linearGraph(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := NewGraph()
	a := g.Add(OpScan, "db", map[string]any{"table": "t"})
	b := g.Add(OpFilter, "db", nil, a)
	c := g.Add(OpSort, "db", nil, b)
	d := g.Add(OpKMeans, "ml", nil, c)
	return g, []NodeID{a, b, c, d}
}

func TestAddAndNode(t *testing.T) {
	g, ids := linearGraph(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	n, err := g.Node(ids[0])
	if err != nil || n.Kind != OpScan || n.StringAttr("table") != "t" {
		t.Fatalf("Node = %+v, %v", n, err)
	}
	if _, err := g.Node(999); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node: %v", err)
	}
	if n.IntAttr("nope") != 0 || n.StringAttr("nope") != "" {
		t.Fatal("absent attrs should zero")
	}
}

func TestAttrAccessors(t *testing.T) {
	g := NewGraph()
	id := g.Add(OpLimit, "db", map[string]any{"n": 5, "m": int64(7), "s": "x"})
	n := g.MustNode(id)
	if n.IntAttr("n") != 5 || n.IntAttr("m") != 7 {
		t.Fatal("IntAttr accepts int and int64")
	}
	if n.StringAttr("s") != "x" {
		t.Fatal("StringAttr")
	}
}

func TestValidate(t *testing.T) {
	g, _ := linearGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dangling input.
	bad := NewGraph()
	bad.Add(OpFilter, "db", nil, NodeID(42))
	if err := bad.Validate(); !errors.Is(err, ErrValidate) {
		t.Fatalf("dangling: %v", err)
	}
	// Invalid kind.
	bad2 := NewGraph()
	bad2.Add(OpKind(999), "db", nil)
	if err := bad2.Validate(); !errors.Is(err, ErrValidate) {
		t.Fatalf("invalid kind: %v", err)
	}
}

func TestTopoSortAndCycle(t *testing.T) {
	g, ids := linearGraph(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for i := 1; i < len(ids); i++ {
		if pos[ids[i-1]] > pos[ids[i]] {
			t.Fatalf("topo order violated: %v", order)
		}
	}
	// Introduce a cycle.
	g.MustNode(ids[0]).Inputs = []NodeID{ids[3]}
	if _, err := g.TopoSort(); !errors.Is(err, ErrValidate) {
		t.Fatalf("cycle: %v", err)
	}
}

func TestStages(t *testing.T) {
	g := NewGraph()
	a := g.Add(OpScan, "db", nil)
	b := g.Add(OpScan, "db", nil)
	j := g.Add(OpHashJoin, "db", nil, a, b)
	s := g.Add(OpSort, "db", nil, j)
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stages = %v", stages)
	}
	if len(stages[0]) != 2 {
		t.Fatalf("stage 0 = %v", stages[0])
	}
	if stages[1][0] != j || stages[2][0] != s {
		t.Fatalf("stage assignment wrong: %v", stages)
	}
}

func TestSinksAndConsumers(t *testing.T) {
	g, ids := linearGraph(t)
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0] != ids[3] {
		t.Fatalf("sinks = %v", sinks)
	}
	cons := g.Consumers(ids[0])
	if len(cons) != 1 || cons[0] != ids[1] {
		t.Fatalf("consumers = %v", cons)
	}
}

// TestConsumerIndex checks the producer -> consumers adjacency against every
// edge of a fan-out across two engines: one scan feeding three filters, two
// of them sorted.
func TestConsumerIndex(t *testing.T) {
	g := NewGraph()
	scan := g.Add(OpScan, "db", map[string]any{"table": "t"})
	for i := 0; i < 3; i++ {
		engine := "db"
		if i%2 == 1 {
			engine = "ml"
		}
		f := g.Add(OpFilter, engine, nil, scan)
		if engine == "db" {
			g.Add(OpSort, "db", nil, f)
		}
	}
	idx := g.ConsumerIndex()
	for id, consumers := range idx {
		for _, c := range consumers {
			if !slices.Contains(g.MustNode(c).Inputs, id) {
				t.Fatalf("index lists %d as consumer of %d but it has inputs %v", c, id, g.MustNode(c).Inputs)
			}
		}
	}
	// Every edge must be covered.
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			if !slices.Contains(idx[in], n.ID) {
				t.Fatalf("edge %d->%d missing from index", in, n.ID)
			}
		}
	}
	if len(idx[scan]) != 3 {
		t.Fatalf("scan consumers = %v, want the three filters", idx[scan])
	}
}

func TestCloneIndependent(t *testing.T) {
	g, ids := linearGraph(t)
	g.SetBinds([]any{int64(3), "x"})
	c := g.Clone()
	g.MustNode(ids[0]).Attrs["table"] = "changed"
	g.MustNode(ids[0]).Engine = "other"
	g.Binds()[0] = int64(4)
	cn := c.MustNode(ids[0])
	if cn.StringAttr("table") != "t" || cn.Engine != "db" {
		t.Fatal("clone shares state")
	}
	if !slices.Equal(c.Binds(), []any{int64(3), "x"}) {
		t.Fatalf("clone binds = %v, want a copy of [3 x]", c.Binds())
	}
	// New nodes in the clone do not collide with the source ids.
	nid := c.Add(OpLimit, "db", nil)
	if _, err := g.Node(nid); err == nil {
		t.Fatal("clone id collides with source")
	}
}

func TestString(t *testing.T) {
	g, _ := linearGraph(t)
	g.MustNode(4).Device = "fpga"
	s := g.String()
	for _, want := range []string{"scan", "filter", "sort", "kmeans", "device=fpga"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpScan.String() != "scan" || OpMigrate.String() != "migrate" {
		t.Fatal("names wrong")
	}
	if OpKind(999).Valid() || OpKind(0).Valid() || !OpTrain.Valid() {
		t.Fatal("Valid wrong")
	}
	// Every declared kind has a name; the first undeclared one has no name
	// and no property.
	for k := OpScan; k < OpKind(len(ops)); k++ {
		if !k.Valid() {
			t.Fatalf("declared kind %d has no name", int(k))
		}
	}
	if past := OpKind(len(ops)); past.Valid() || past.String() != fmt.Sprintf("OpKind(%d)", len(ops)) || past.Pure() {
		t.Fatalf("undeclared kind: valid=%t name=%q", past.Valid(), past)
	}
	if !OpFilter.Offloadable() || OpScan.Offloadable() || OpKind(999).Cacheable() {
		t.Fatal("properties wrong")
	}
}

// Property: random DAGs — wired along a hidden random order, so an edge may
// run from a higher id to a lower one — always validate and topo-sort to a
// consistent order, and to the one topoReference computes.
func TestPropertyRandomDAG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := NewGraph()
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.Add(OpFilter, "e", nil)
		}
		hidden := rng.Perm(n)
		for k := 1; k < n; k++ {
			nd := g.MustNode(ids[hidden[k]])
			for j := 0; j < k && len(nd.Inputs) < 3; j++ {
				if rng.Intn(3) == 0 {
					nd.Inputs = append(nd.Inputs, ids[hidden[j]])
				}
			}
		}
		if g.Validate() != nil {
			return false
		}
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := map[NodeID]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, nd := range g.Nodes() {
			for _, in := range nd.Inputs {
				if pos[in] > pos[nd.ID] {
					return false
				}
			}
		}
		return slices.Equal(order, topoReference(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// topoReference is the order TopoSort promises, found the plain way: place,
// again and again, the smallest unplaced node whose inputs are all placed.
func topoReference(g *Graph) []NodeID {
	placed := map[NodeID]bool{}
	var out []NodeID
	for len(out) < g.Len() {
		for _, n := range g.Nodes() {
			ready := !placed[n.ID]
			for _, in := range n.Inputs {
				ready = ready && placed[in]
			}
			if ready {
				placed[n.ID] = true
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}
