// Package graphstore implements the graph engine of the polystore (the
// Neo4j role: path-finding, pattern matching). It stores a labeled property
// graph in adjacency lists and executes the graph operators the paper's IR
// taxonomy names (§III-A1): match and weighted shortest path; the
// Cypher-ish pattern frontend is provided by the EIDE package.
package graphstore

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Sentinel errors.
var (
	ErrNoNode = errors.New("graphstore: node not found")
	ErrNoPath = errors.New("graphstore: no path")
)

// NodeID identifies a node.
type NodeID int64

// Node is a labeled node with properties.
type Node struct {
	ID    NodeID
	Label string
	Props map[string]any
}

// Edge is a directed, typed, weighted edge.
type Edge struct {
	From   NodeID
	To     NodeID
	Type   string
	Weight float64
}

// Store is an in-memory property graph. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	nodes   map[NodeID]*Node
	out     map[NodeID][]Edge
	in      map[NodeID][]Edge
	byLabel map[string][]NodeID
	edges   int
	// version counts mutations (node/edge inserts); see Version.
	version uint64
}

// Version returns the store's monotonic mutation count. The serving layer
// keys result caches on it, so graph changes invalidate cached results.
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
		in:      make(map[NodeID][]Edge),
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
	cp := n
	if cp.Props == nil {
		cp.Props = map[string]any{}
	}
	s.nodes[n.ID] = &cp
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
	s.in[e.To] = append(s.in[e.To], e)
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

// BFS returns the minimum hop count from src to dst following out-edges
// ("" edgeType = any), or ErrNoPath.
func (s *Store) BFS(src, dst NodeID, edgeType string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.nodes[src]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, src)
	}
	if _, ok := s.nodes[dst]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, dst)
	}
	if src == dst {
		return 0, nil
	}
	visited := map[NodeID]bool{src: true}
	frontier := []NodeID{src}
	depth := 0
	for len(frontier) > 0 {
		depth++
		var next []NodeID
		for _, u := range frontier {
			for _, e := range s.out[u] {
				if edgeType != "" && e.Type != edgeType {
					continue
				}
				if e.To == dst {
					return depth, nil
				}
				if !visited[e.To] {
					visited[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return 0, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
}

// pqItem is a priority-queue element for Dijkstra.
type pqItem struct {
	id   NodeID
	dist float64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// ShortestPath returns the minimum-weight path from src to dst (Dijkstra)
// and its total weight. Edge weights must be non-negative.
func (s *Store) ShortestPath(src, dst NodeID) ([]NodeID, float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.nodes[src]; !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoNode, src)
	}
	if _, ok := s.nodes[dst]; !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoNode, dst)
	}
	dist := map[NodeID]float64{src: 0}
	prev := map[NodeID]NodeID{}
	done := map[NodeID]bool{}
	q := &pq{{id: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.id] {
			continue
		}
		done[it.id] = true
		if it.id == dst {
			break
		}
		for _, e := range s.out[it.id] {
			nd := it.dist + e.Weight
			if old, seen := dist[e.To]; !seen || nd < old {
				dist[e.To] = nd
				prev[e.To] = it.id
				heap.Push(q, pqItem{id: e.To, dist: nd})
			}
		}
	}
	if !done[dst] {
		return nil, 0, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
	}
	var path []NodeID
	for at := dst; ; {
		path = append([]NodeID{at}, path...)
		if at == src {
			break
		}
		at = prev[at]
	}
	return path, dist[dst], nil
}
