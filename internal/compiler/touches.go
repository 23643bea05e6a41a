package compiler

import (
	"sort"

	"polystorepp/internal/ir"
)

// Touches records the stored data a program reads: which engine instances,
// and — for relational engines, where scans name their tables — which
// tables. Single-flight and the subplan cache key on the data versions of
// exactly such a set (core.Runtime.VersionVector), so a write to an engine or
// table a plan never reads leaves its cached results valid: the surgical
// invalidation the ROADMAP's "per-table data versions" item asks for.
type Touches struct {
	// ByEngine maps each touched engine instance to the sorted table names
	// its reads are confined to. A nil value means the whole engine must be
	// versioned (non-relational reads, or relational reads whose tables
	// cannot be determined statically); an empty non-nil slice means the
	// engine executes only pure dataflow operators over migrated inputs and
	// reads no stored data at all.
	ByEngine map[string][]string
}

// touchAccum accumulates per-node storage reads into the per-engine
// table/whole-engine sets Touches is rendered from.
type touchAccum struct {
	tables map[string]map[string]bool
	whole  map[string]bool
}

func newTouchAccum() *touchAccum {
	return &touchAccum{tables: make(map[string]map[string]bool), whole: make(map[string]bool)}
}

// observe folds one node's storage reads into the accumulator. It is
// deliberately conservative: any storage-reading operator whose tables
// cannot be named statically widens its engine to whole-engine versioning,
// and unknown operator kinds count as storage reads.
func (ta *touchAccum) observe(n *ir.Node) {
	if n.Engine == "" {
		return // middleware nodes (migrations)
	}
	if _, ok := ta.tables[n.Engine]; !ok {
		ta.tables[n.Engine] = make(map[string]bool)
	}
	switch {
	case n.Kind.Pure():
		// No storage read.
	case n.Kind == ir.OpScan || n.Kind == ir.OpIndexScan:
		if t := n.StringAttr("table"); t != "" {
			ta.tables[n.Engine][t] = true
		} else {
			ta.whole[n.Engine] = true
		}
	default:
		// Every other kind (graph/text/ts/stream/kv reads, future
		// operators) reads engine storage without table scoping.
		ta.whole[n.Engine] = true
	}
}

// touches renders the accumulated reads as a Touches value.
func (ta *touchAccum) touches() Touches {
	out := Touches{ByEngine: make(map[string][]string, len(ta.tables))}
	for e, ts := range ta.tables {
		if ta.whole[e] {
			out.ByEngine[e] = nil
			continue
		}
		names := make([]string, 0, len(ts))
		for t := range ts {
			names = append(names, t)
		}
		sort.Strings(names)
		out.ByEngine[e] = names
	}
	return out
}

// TouchesOf computes the data a program graph reads. The result depends
// only on the graph's shape, so Compile records it as Plan.Touches and every
// statement the plan serves shares it.
func TouchesOf(g *ir.Graph) Touches {
	ta := newTouchAccum()
	for _, n := range g.Nodes() {
		ta.observe(n)
	}
	return ta.touches()
}

// touchesOfNodes computes the data exactly the given nodes read — the
// per-subtree variant the subplan cache keys its version vectors on.
func touchesOfNodes(g *ir.Graph, ids []ir.NodeID) Touches {
	ta := newTouchAccum()
	for _, id := range ids {
		ta.observe(g.MustNode(id))
	}
	return ta.touches()
}
