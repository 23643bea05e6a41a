package graphstore

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds: 1 -> 2 -> 4, 1 -> 3 -> 4 with weights, plus labels.
func diamond(t *testing.T) *Store {
	t.Helper()
	s := New()
	s.AddNode(Node{ID: 1, Label: "patient"})
	s.AddNode(Node{ID: 2, Label: "ward"})
	s.AddNode(Node{ID: 3, Label: "ward"})
	s.AddNode(Node{ID: 4, Label: "icu"})
	edges := []Edge{
		{From: 1, To: 2, Type: "admitted", Weight: 1},
		{From: 1, To: 3, Type: "admitted", Weight: 5},
		{From: 2, To: 4, Type: "moved", Weight: 1},
		{From: 3, To: 4, Type: "moved", Weight: 1},
	}
	for _, e := range edges {
		if err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddAndCounts(t *testing.T) {
	s := diamond(t)
	if len(s.nodes) != 4 || s.Edges() != 4 {
		t.Fatalf("counts = %d nodes, %d edges", len(s.nodes), s.Edges())
	}
	if n := s.nodes[1]; n == nil || n.Label != "patient" {
		t.Fatalf("node 1 = %+v", n)
	}
	if err := s.AddEdge(Edge{From: 1, To: 99}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("edge to missing: %v", err)
	}
	if err := s.AddEdge(Edge{From: 99, To: 1}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("edge from missing: %v", err)
	}
}

func TestByLabelAndReplace(t *testing.T) {
	s := diamond(t)
	// The label index is what MatchPattern starts from.
	wards := s.MatchPattern("ward", "moved", "icu")
	if len(wards) != 2 || wards[0][0] != 2 || wards[1][0] != 3 {
		t.Fatalf("wards = %v", wards)
	}
	// Relabel node 3.
	s.AddNode(Node{ID: 3, Label: "icu"})
	if got := s.MatchPattern("ward", "moved", "icu"); len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("ward after relabel = %v", got)
	}
	if got := s.MatchPattern("icu", "moved", "icu"); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("icu after relabel = %v", got)
	}
}

func TestMatchPattern(t *testing.T) {
	s := diamond(t)
	pairs := s.MatchPattern("patient", "admitted", "ward")
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0] != [2]NodeID{1, 2} || pairs[1] != [2]NodeID{1, 3} {
		t.Fatalf("pair order = %v", pairs)
	}
	if got := s.MatchPattern("ward", "admitted", "icu"); len(got) != 0 {
		t.Fatalf("wrong pattern matched: %v", got)
	}
	if got := s.MatchPattern("patient", "", "ward"); len(got) != 2 {
		t.Fatalf("any-type pattern: %v", got)
	}
}

func TestBFS(t *testing.T) {
	s := diamond(t)
	d, err := s.BFS(1, 4, "")
	if err != nil || d != 2 {
		t.Fatalf("BFS = %d, %v", d, err)
	}
	d, err = s.BFS(1, 1, "")
	if err != nil || d != 0 {
		t.Fatalf("self BFS = %d, %v", d, err)
	}
	if _, err := s.BFS(4, 1, ""); !errors.Is(err, ErrNoPath) {
		t.Fatalf("reverse: %v", err)
	}
	if _, err := s.BFS(99, 1, ""); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing src: %v", err)
	}
	if _, err := s.BFS(1, 99, ""); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing dst: %v", err)
	}
}

func TestShortestPath(t *testing.T) {
	s := diamond(t)
	path, w, err := s.ShortestPath(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 { // 1->2 (1) + 2->4 (1)
		t.Fatalf("weight = %v", w)
	}
	if len(path) != 3 || path[0] != 1 || path[1] != 2 || path[2] != 4 {
		t.Fatalf("path = %v", path)
	}
	if _, _, err := s.ShortestPath(4, 1); !errors.Is(err, ErrNoPath) {
		t.Fatalf("no path: %v", err)
	}
}

// Property: BFS hop count on a random DAG never exceeds Dijkstra path length
// when all weights are 1 (they must be equal).
func TestPropertyBFSMatchesUnitDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := rng.Intn(20) + 5
		for i := 0; i < n; i++ {
			s.AddNode(Node{ID: NodeID(i), Label: "n"})
		}
		// Forward edges only (DAG) with unit weights.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					if err := s.AddEdge(Edge{From: NodeID(i), To: NodeID(j), Weight: 1}); err != nil {
						return false
					}
				}
			}
		}
		src, dst := NodeID(0), NodeID(n-1)
		hops, errB := s.BFS(src, dst, "")
		_, w, errD := s.ShortestPath(src, dst)
		if (errB == nil) != (errD == nil) {
			return false
		}
		if errB != nil {
			return true // both report no path
		}
		return float64(hops) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
