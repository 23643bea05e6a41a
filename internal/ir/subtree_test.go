package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// chain builds scan -> filter -> sort with the given attr on the filter.
func chain(filterAttr int64) *Graph {
	g := NewGraph()
	s := g.Add(OpScan, "db", map[string]any{"table": "t"})
	f := g.Add(OpFilter, "db", map[string]any{"n": filterAttr}, s)
	g.Add(OpSort, "db", map[string]any{"col": "v"}, f)
	return g
}

func TestSubtreeFingerprintsClosure(t *testing.T) {
	g := chain(1)
	fps, err := g.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 3 {
		t.Fatalf("fingerprints for %d nodes, want 3", len(fps))
	}
	// Closure sizes grow along the chain: 1, 2, 3 nodes.
	wantSizes := map[NodeID]int{1: 1, 2: 2, 3: 3}
	for id, want := range wantSizes {
		if got := len(fps[id].Closure); got != want {
			t.Fatalf("node %d closure size = %d, want %d", id, got, want)
		}
	}
	// Closures are sorted ascending.
	for id, fp := range fps {
		for i := 1; i < len(fp.Closure); i++ {
			if fp.Closure[i-1] >= fp.Closure[i] {
				t.Fatalf("node %d closure not strictly ascending: %v", id, fp.Closure)
			}
		}
	}
}

// TestSubtreeFingerprintPositionIndependence is the property the subplan
// cache rides on: the same subtree shape must hash identically no matter
// where it sits in the graph (absolute node ids differ, ranks do not).
func TestSubtreeFingerprintPositionIndependence(t *testing.T) {
	a := chain(1)
	afps, err := a.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}

	// Same chain built after two unrelated nodes, shifting every id by 2.
	b := NewGraph()
	pre := b.Add(OpScan, "db", map[string]any{"table": "other"})
	b.Add(OpLimit, "db", map[string]any{"n": int64(5)}, pre)
	s := b.Add(OpScan, "db", map[string]any{"table": "t"})
	f := b.Add(OpFilter, "db", map[string]any{"n": int64(1)}, s)
	last := b.Add(OpSort, "db", map[string]any{"col": "v"}, f)
	bfps, err := b.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if afps[3].Fingerprint != bfps[last].Fingerprint {
		t.Fatal("identical subtree shape hashed differently at a different graph position")
	}
	if afps[1].Fingerprint == bfps[pre].Fingerprint {
		t.Fatal("scans of different tables hashed equal")
	}
}

// TestSubtreeFingerprintMutationSensitivity: changing any attr, kind,
// engine, or wiring inside the closure must change the root fingerprint.
func TestSubtreeFingerprintMutationSensitivity(t *testing.T) {
	base := chain(1)
	basefp, err := base.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	root := NodeID(3)

	// Attr change deep in the subtree.
	m1 := chain(2)
	fp1, _ := m1.SubtreeFingerprints()
	if fp1[root].Fingerprint == basefp[root].Fingerprint {
		t.Fatal("interior attr change did not change the root fingerprint")
	}

	// Engine change.
	m2 := NewGraph()
	s := m2.Add(OpScan, "tsdb", map[string]any{"table": "t"})
	f := m2.Add(OpFilter, "db", map[string]any{"n": int64(1)}, s)
	m2.Add(OpSort, "db", map[string]any{"col": "v"}, f)
	fp2, _ := m2.SubtreeFingerprints()
	if fp2[root].Fingerprint == basefp[root].Fingerprint {
		t.Fatal("engine change did not change the root fingerprint")
	}

	// Wiring change: sort reads the scan directly (filter dangles).
	m3 := NewGraph()
	s3 := m3.Add(OpScan, "db", map[string]any{"table": "t"})
	m3.Add(OpFilter, "db", map[string]any{"n": int64(1)}, s3)
	m3.Add(OpSort, "db", map[string]any{"col": "v"}, s3)
	fp3, _ := m3.SubtreeFingerprints()
	if fp3[root].Fingerprint == basefp[root].Fingerprint {
		t.Fatal("wiring change did not change the root fingerprint")
	}
}

// TestSubtreeFingerprintDAGSharing: a diamond (one scan consumed by two
// filters joined back together) must hash differently from the same shape
// over two distinct-but-equal scans — shared inputs are part of the content.
func TestSubtreeFingerprintDAGSharing(t *testing.T) {
	shared := NewGraph()
	s := shared.Add(OpScan, "db", map[string]any{"table": "t"})
	f1 := shared.Add(OpFilter, "db", map[string]any{"n": int64(1)}, s)
	f2 := shared.Add(OpFilter, "db", map[string]any{"n": int64(2)}, s)
	sr := shared.Add(OpHashJoin, "db", nil, f1, f2)

	split := NewGraph()
	sa := split.Add(OpScan, "db", map[string]any{"table": "t"})
	sb := split.Add(OpScan, "db", map[string]any{"table": "t"})
	g1 := split.Add(OpFilter, "db", map[string]any{"n": int64(1)}, sa)
	g2 := split.Add(OpFilter, "db", map[string]any{"n": int64(2)}, sb)
	pr := split.Add(OpHashJoin, "db", nil, g1, g2)

	sfp, err := shared.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	pfp, err := split.SubtreeFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if sfp[sr].Fingerprint == pfp[pr].Fingerprint {
		t.Fatal("shared-scan diamond hashed equal to split-scan diamond")
	}
	if len(sfp[sr].Closure) != 4 || len(pfp[pr].Closure) != 5 {
		t.Fatalf("closure sizes = %d, %d; want 4, 5", len(sfp[sr].Closure), len(pfp[pr].Closure))
	}
}

// testHole is a Hole of the tests: a slot and the name of its type.
type testHole struct {
	Slot int
	Type string
}

func (h testHole) BindSlot() int    { return h.Slot }
func (h testHole) GoString() string { return "ir.testHole{" + h.Type + "}" }

// fullKey is a subtree's fingerprint completed by the constants its holes
// are bound to — what the subplan cache keys on, less the version vector.
func fullKey(fp SubtreeFP, binds []any) string {
	b := []byte(fp.Fingerprint + "|")
	for _, s := range fp.Slots {
		b = AppendBind(b, binds[s])
	}
	return string(b)
}

// FuzzSubtreeFingerprint drives randomized chain/diamond graphs from raw
// bytes and checks the fingerprint invariants: equal builds hash equal,
// any single attr or wiring mutation changes the root hash, and the walk
// never panics on graphs the validator accepts. With the attributes lifted
// into holes, graphs differing only in their bind vectors share every shape
// key — Graph.Fingerprint and the subtree fingerprints — and differ in the
// full key, wherever their slots are numbered, while holes of another type
// make another shape.
func FuzzSubtreeFingerprint(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, int64(7))
	f.Add([]byte{0}, int64(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, int64(-3))
	f.Fuzz(func(t *testing.T, shape []byte, attr int64) {
		// build makes the graph whose i-th added node holds attribute
		// attrOf(i).
		build := func(attrOf func(i int) any, skipEdge bool) *Graph {
			g := NewGraph()
			ids := []NodeID{g.Add(OpScan, "db", map[string]any{"table": "t"})}
			kinds := []OpKind{OpFilter, OpProject, OpSort, OpLimit, OpHashJoin}
			for i, b := range shape {
				if len(ids) > 24 {
					break
				}
				kind := kinds[int(b)%len(kinds)]
				in := ids[int(b>>4)%len(ids)]
				n := g.Add(kind, "db", map[string]any{"n": attrOf(i)}, in)
				ids = append(ids, n)
			}
			// Tie every dangling tail into one multi-input join sink so the
			// graph has a single root whose closure is the whole graph.
			sinks := g.Sinks()
			if len(sinks) > 1 {
				if skipEdge {
					sinks = sinks[:len(sinks)-1]
				}
				ids = append(ids, g.Add(OpHashJoin, "db", nil, sinks...))
			}
			return g
		}
		literal := func(a int64) func(int) any { return func(i int) any { return a + int64(i) } }
		g1 := build(literal(attr), false)
		fp1, err := g1.SubtreeFingerprints()
		if err != nil {
			t.Skip() // cyclic or invalid shapes are the validator's concern
		}
		g2 := build(literal(attr), false)
		fp2, err := g2.SubtreeFingerprints()
		if err != nil {
			t.Fatalf("identical rebuild failed: %v", err)
		}
		if len(fp1) != len(fp2) {
			t.Fatalf("rebuild has %d fingerprints, want %d", len(fp2), len(fp1))
		}
		for id, fp := range fp1 {
			if fp2[id].Fingerprint != fp.Fingerprint {
				t.Fatalf("node %d: identical builds hashed differently", id)
			}
		}
		root := g1.Sinks()[len(g1.Sinks())-1]
		// Attr mutation flips every fingerprint whose closure contains a
		// mutated node — in particular the root's (all interior attrs shift).
		if len(shape) > 0 {
			fp3, err := build(literal(attr+1), false).SubtreeFingerprints()
			if err != nil {
				t.Fatalf("attr-mutated rebuild failed: %v", err)
			}
			if fp3[root].Fingerprint == fp1[root].Fingerprint {
				t.Fatal("attr mutation kept the root fingerprint")
			}
		}

		// The same constants lifted into holes numbered from base, of type
		// typ at node 0: binds(a, base) is the matching bind vector, its
		// first base slots taken by constants of other holes.
		holes := func(base int, typ string) *Graph {
			return build(func(i int) any {
				if i == 0 {
					return testHole{Slot: base, Type: typ}
				}
				return testHole{Slot: base + i, Type: "int64"}
			}, false)
		}
		binds := func(a int64, base int) []any {
			out := make([]any, base, base+len(shape))
			for i := range out {
				out[i] = "other"
			}
			for i := range shape {
				out = append(out, a+int64(i))
			}
			return out
		}
		h1, h2 := holes(0, "int64"), holes(3, "int64")
		hfp1, err := h1.SubtreeFingerprints()
		if err != nil {
			t.Fatalf("holed build failed: %v", err)
		}
		hfp2, err := h2.SubtreeFingerprints()
		if err != nil {
			t.Fatalf("holed build failed: %v", err)
		}
		if h1.Fingerprint() != h2.Fingerprint() {
			t.Fatal("renumbering the holes changed the shape key")
		}
		for id, fp := range hfp1 {
			if hfp2[id].Fingerprint != fp.Fingerprint {
				t.Fatalf("node %d: renumbering the holes changed the subtree fingerprint", id)
			}
			if fullKey(fp, binds(attr, 0)) != fullKey(hfp2[id], binds(attr, 3)) {
				t.Fatalf("node %d: equal constants under other slots changed the full key", id)
			}
		}
		if len(shape) > 0 {
			if fullKey(hfp1[root], binds(attr, 0)) == fullKey(hfp1[root], binds(attr+1, 0)) {
				t.Fatal("other constants kept the root's full key")
			}
			other := holes(0, "float64")
			ofp, err := other.SubtreeFingerprints()
			if err != nil {
				t.Fatalf("retyped build failed: %v", err)
			}
			if other.Fingerprint() == h1.Fingerprint() || ofp[root].Fingerprint == hfp1[root].Fingerprint {
				t.Fatal("a hole of another type kept the shape key")
			}
		}

		// Wiring mutation (dropping one sink edge) changes the root hash
		// whenever it changes the sink's input list.
		g4 := build(literal(attr), true)
		fp4, err := g4.SubtreeFingerprints()
		if err != nil {
			t.Skip()
		}
		root4 := g4.Sinks()[len(g4.Sinks())-1]
		n1, n4 := g1.MustNode(root), g4.MustNode(root4)
		if len(n1.Inputs) != len(n4.Inputs) && fp4[root4].Fingerprint == fp1[root].Fingerprint {
			t.Fatal("wiring mutation kept the root fingerprint")
		}
	})
}

// TestMapAttrFingerprintIgnoresInsertionOrder: a map-valued attribute
// fingerprints the same whatever order its keys were inserted in, and a
// changed value still changes the fingerprint. Slices and scalars keep
// their element-by-element and %#v encodings.
func TestMapAttrFingerprintIgnoresInsertionOrder(t *testing.T) {
	graph := func(keys []string, bump string) *Graph {
		m := make(map[string]any, len(keys))
		for i, k := range keys {
			m[k] = int64(len(k))
			if k == bump {
				m[k] = int64(len(k) + i + 1)
			}
		}
		g := NewGraph()
		g.Add(OpScan, "db", map[string]any{"table": "t", "opts": m})
		return g
	}
	var keys []string
	for i := range 64 {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	want := graph(keys, "").Fingerprint()
	for seed := range int64(8) {
		shuffled := slices.Clone(keys)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := graph(shuffled, "").Fingerprint(); got != want {
			t.Fatalf("seed %d: insertion order changed the fingerprint: %s, want %s", seed, got, want)
		}
	}
	if graph(keys, "k07").Fingerprint() == want {
		t.Fatal("a changed map value kept the fingerprint")
	}

	var b strings.Builder
	writeCanonicalValue(&b, []any{int64(1), "a", []string{"x"}})
	writeCanonicalValue(&b, int64(7))
	if got, want := b.String(), `[]interface {}[1,"a",[]string["x",],]7`; got != want {
		t.Fatalf("slice and scalar encoding = %s, want %s", got, want)
	}
}
