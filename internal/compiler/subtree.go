package compiler

import (
	"cmp"
	"slices"

	"polystorepp/internal/ir"
)

// Subtree is one cacheable, closed subtree of a compiled plan — a candidate
// unit for the runtime's content-addressed subplan cache. The cache key is
// (Fingerprint, the constants at Slots, version vector of Touches), so a
// memoized intermediate is served only to an execution binding the same
// constants, and only while none of the stores the subtree reads have been
// written.
type Subtree struct {
	// Root is the node whose output the cache memoizes.
	Root ir.NodeID
	// Fingerprint is the root's position-independent subtree hash
	// (ir.Graph.SubtreeFingerprints): equal across plans that share the
	// subtree's shape regardless of absolute node ids.
	Fingerprint string
	// Closure lists the subtree's nodes (Root plus transitive inputs),
	// sorted ascending. The subtree is closed: no node but Root feeds
	// anything outside the closure, so a cache hit can skip every node in
	// it without starving an outside consumer.
	Closure []ir.NodeID
	// Slots lists the slots of the closure's holes in fingerprint order
	// (ir.SubtreeFP.Slots): the constants an execution binds there join
	// Fingerprint, which hashes only their types, in the cache key.
	Slots []int
	// Touches names the stores the closure reads — the version-vector
	// scope whose value joins Fingerprint in the cache key.
	Touches Touches
}

// subtreesOf selects the plan's subplan-cache candidates: closed subtrees
// of at least two cacheable, unpinned nodes. Candidates are returned
// outermost first (closure size descending, root id ascending on ties);
// because closed candidates are either nested or disjoint, probing in that
// order lets one outer hit cover every inner candidate.
//
// A subtree whose only consumer is a cacheable migration is not a candidate:
// the migration's output is its rows again, on the far engine, and the
// subtree the migration roots is closed exactly when this one is. Caching
// both would hold the same rows twice per key.
func subtreesOf(g *ir.Graph) []Subtree {
	fps, err := g.SubtreeFingerprints()
	if err != nil {
		return nil // Compile validated the graph; unreachable in practice
	}
	cacheable := make(map[ir.NodeID]bool, g.Len())
	for _, n := range g.Nodes() {
		// Device-pinned nodes (explicit device names) are excluded: their
		// results depend on deployment hardware the fingerprint does not
		// encode. "auto" is the compiler's own offload marker and encodes
		// into the fingerprint, so it stays cacheable.
		cacheable[n.ID] = n.Kind.Cacheable() && (n.Device == "" || n.Device == "auto")
	}
	consumers := g.ConsumerIndex()
	var out []Subtree
	for _, n := range g.Nodes() {
		fp, ok := fps[n.ID]
		if !ok || len(fp.Closure) < 2 || !cacheable[n.ID] {
			continue
		}
		if cs := consumers[n.ID]; len(cs) == 1 && cacheable[cs[0]] && g.MustNode(cs[0]).Kind == ir.OpMigrate {
			continue
		}
		inside := make(map[ir.NodeID]bool, len(fp.Closure))
		for _, id := range fp.Closure {
			inside[id] = true
		}
		ok = true
		for _, id := range fp.Closure {
			if !cacheable[id] {
				ok = false
				break
			}
			if id == n.ID {
				continue
			}
			// Closed check: an interior node feeding a consumer outside the
			// closure can't be skipped on a hit — the consumer would read
			// nothing.
			for _, c := range consumers[id] {
				if !inside[c] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, Subtree{
			Root:        n.ID,
			Fingerprint: fp.Fingerprint,
			Closure:     fp.Closure,
			Slots:       fp.Slots,
			Touches:     touchesOfNodes(g, fp.Closure),
		})
	}
	slices.SortFunc(out, func(a, b Subtree) int {
		if c := cmp.Compare(len(b.Closure), len(a.Closure)); c != 0 {
			return c
		}
		return cmp.Compare(a.Root, b.Root)
	})
	return out
}
