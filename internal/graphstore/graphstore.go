// Package graphstore implements the graph engine of the polystore (the
// Neo4j role). It stores a labeled graph in adjacency lists and executes the
// pattern match of the paper's IR taxonomy (§III-A1), which the Figure 5
// program runs; the Cypher-ish pattern frontend is provided by the EIDE
// package.
package graphstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNoNode reports an edge whose endpoint is not in the store.
var ErrNoNode = errors.New("graphstore: node not found")

// NodeID identifies a node.
type NodeID int64

// Node is a labeled node.
type Node struct {
	ID    NodeID
	Label string
}

// Edge is a directed, typed edge.
type Edge struct {
	From NodeID
	To   NodeID
	Type string
}

// Store is an in-memory labeled graph. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	nodes   map[NodeID]*Node
	out     map[NodeID][]Edge
	byLabel map[string][]NodeID
	edges   int
	// version counts mutations (node/edge inserts); see Version.
	version uint64
}

// Version returns the store's monotonic mutation count. The subplan cache
// keys on it, so graph changes invalidate cached results.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// New returns an empty graph store.
func New() *Store {
	return &Store{
		nodes:   make(map[NodeID]*Node),
		out:     make(map[NodeID][]Edge),
		byLabel: make(map[string][]NodeID),
	}
}

// AddNode inserts (or replaces) a node.
func (s *Store) AddNode(n Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.nodes[n.ID]; ok {
		// Replacing: drop the label registration.
		ids := s.byLabel[old.Label]
		for i, id := range ids {
			if id == n.ID {
				s.byLabel[old.Label] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	s.nodes[n.ID] = &n
	s.byLabel[n.Label] = append(s.byLabel[n.Label], n.ID)
	s.version++
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (s *Store) AddEdge(e Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[e.From]; !ok {
		return fmt.Errorf("%w: %d", ErrNoNode, e.From)
	}
	if _, ok := s.nodes[e.To]; !ok {
		return fmt.Errorf("%w: %d", ErrNoNode, e.To)
	}
	s.out[e.From] = append(s.out[e.From], e)
	s.edges++
	s.version++
	return nil
}

// Edges returns the number of edges.
func (s *Store) Edges() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.edges
}

// MatchPattern finds all (a, b) node pairs where a has labelA, b has labelB,
// and an edge of edgeType connects a→b — the MATCH operator of the IR.
func (s *Store) MatchPattern(labelA, edgeType, labelB string) [][2]NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [][2]NodeID
	for _, a := range s.byLabel[labelA] {
		for _, e := range s.out[a] {
			if edgeType != "" && e.Type != edgeType {
				continue
			}
			if b, ok := s.nodes[e.To]; ok && b.Label == labelB {
				out = append(out, [2]NodeID{a, e.To})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
