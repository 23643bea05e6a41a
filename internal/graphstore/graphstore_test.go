package graphstore

import (
	"errors"
	"testing"
)

// diamond builds: 1 -> 2 -> 4, 1 -> 3 -> 4, with labels.
func diamond(t *testing.T) *Store {
	t.Helper()
	s := New()
	s.AddNode(Node{ID: 1, Label: "patient"})
	s.AddNode(Node{ID: 2, Label: "ward"})
	s.AddNode(Node{ID: 3, Label: "ward"})
	s.AddNode(Node{ID: 4, Label: "icu"})
	edges := []Edge{
		{From: 1, To: 2, Type: "admitted"},
		{From: 1, To: 3, Type: "admitted"},
		{From: 2, To: 4, Type: "moved"},
		{From: 3, To: 4, Type: "moved"},
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
