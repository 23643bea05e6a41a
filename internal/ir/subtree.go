package ir

import (
	"crypto/sha256"
	"fmt"
	"slices"
)

// SubtreeFP describes the subtree rooted at one node: its transitive input
// closure and a content hash of that closure's shape.
type SubtreeFP struct {
	// Fingerprint is the sha256 digest (32 raw bytes, the shortest key part
	// the subplan cache can build on) of the closure's canonical encoding
	// with node ids remapped to closure ranks (see SubtreeFingerprints for
	// the invariants this buys).
	Fingerprint string
	// Closure lists the nodes of the subtree — the root plus every
	// transitive input — sorted ascending by id. The position of a node in
	// this slice is its rank, the id the fingerprint encoding uses.
	Closure []NodeID
	// Slots lists the slot of every hole in the closure, in the order the
	// fingerprint encoding writes the holes (a slot held twice appears
	// twice). The fingerprint hashes only the holes' types, so the constants
	// at these slots complete the subtree's content address: equal
	// fingerprints and equal constants here mean equal subtrees, wherever
	// in their statements the slots were numbered.
	Slots []int
}

// SubtreeFingerprints computes, for every node, a content hash of the
// subtree rooted at it: the node itself plus its transitive input closure.
// The encoding reuses the canonical per-node form behind Graph.Fingerprint,
// but with node ids remapped to their rank within the sorted closure, so
// two subtrees with the same operators, attributes, and wiring hash
// identically regardless of the absolute ids their builders assigned or
// where in a larger graph they sit. That position independence is what lets
// near-identical queries — same scan/filter/join prefix, different
// projection or limit appended after it — share memoized intermediates in
// the subplan cache.
//
// DAG sharing is captured exactly: a producer consumed twice inside the
// closure appears once, with both consumers wiring to its rank, so a
// diamond never hashes equal to a tree that duplicates the shared node.
//
// The result depends only on the graph, so callers may memoize it per
// graph; the compiler computes it once per Compile and stores the cacheable
// subset on the immutable Plan.
func (g *Graph) SubtreeFingerprints() (map[NodeID]SubtreeFP, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	closures := make(map[NodeID][]NodeID, len(order))
	for _, id := range order {
		n := g.nodes[id]
		set := map[NodeID]bool{id: true}
		for _, in := range n.Inputs {
			for _, cid := range closures[in] {
				set[cid] = true
			}
		}
		cl := make([]NodeID, 0, len(set))
		for cid := range set {
			cl = append(cl, cid)
		}
		slices.Sort(cl)
		closures[id] = cl
	}

	holes := make(map[NodeID][]int)
	for _, id := range order {
		if s := g.nodes[id].slots(nil); len(s) > 0 {
			holes[id] = s
		}
	}
	out := make(map[NodeID]SubtreeFP, len(order))
	for _, id := range order {
		cl := closures[id]
		rank := make(map[NodeID]int, len(cl))
		for i, cid := range cl {
			rank[cid] = i
		}
		h := sha256.New()
		var slots []int
		for _, cid := range cl {
			writeCanonicalNode(h, g.nodes[cid], rank)
			slots = append(slots, holes[cid]...)
		}
		// The root's rank disambiguates closures that could otherwise
		// encode identically with different roots (defensive: a closed
		// closure has exactly one sink, but the hash should not rely on
		// callers checking that).
		fmt.Fprintf(h, "root%d", rank[id])
		out[id] = SubtreeFP{Fingerprint: string(h.Sum(nil)), Closure: cl, Slots: slots}
	}
	return out, nil
}
