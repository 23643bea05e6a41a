package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
)

// Fingerprint returns a stable content hash of the graph's shape: two graphs
// built from the same program text hash identically, independent of
// node-map iteration order, and so do two whose statements differ only in
// the constants their holes stand for — the bind vector is not hashed (see
// Hole). The serving layer keys its plan cache on this value (plus the
// compiler options), so the hash must cover everything that changes the
// compiled plan: node ids, kinds, engines, device pins, input wiring,
// and attributes with each hole's type.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	g.writeCanonical(h)
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonical emits a deterministic byte encoding of the graph.
func (g *Graph) writeCanonical(w io.Writer) {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		writeCanonicalNode(w, g.nodes[id], nil)
	}
}

// writeCanonicalNode emits one node's canonical form. When rank is non-nil
// the node's own id and its input ids are translated through it — the
// position-independent encoding subtree fingerprints hash; Graph.Fingerprint
// hashes absolute ids (rank nil).
func writeCanonicalNode(w io.Writer, n *Node, rank map[NodeID]int) {
	if rank == nil {
		fmt.Fprintf(w, "n%d|k%d|e%s|d%s|in%v|", int(n.ID), int(n.Kind), n.Engine, n.Device, n.Inputs)
	} else {
		ins := make([]int, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = rank[in]
		}
		fmt.Fprintf(w, "n%d|k%d|e%s|d%s|in%v|", rank[n.ID], int(n.Kind), n.Engine, n.Device, ins)
	}
	for _, k := range n.attrKeys() {
		fmt.Fprintf(w, "a%s=", k)
		writeCanonicalValue(w, n.Attrs[k])
		io.WriteString(w, ";")
	}
	io.WriteString(w, "\n")
}

// attrKeys returns the node's attribute keys in the canonical order.
func (n *Node) attrKeys() []string {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// slots appends the slots of the holes in the node's attributes to dst, in
// the order writeCanonicalNode writes them.
func (n *Node) slots(dst []int) []int {
	for _, k := range n.attrKeys() {
		dst = AppendSlots(dst, n.Attrs[k])
	}
	return dst
}

// writeCanonicalValue renders one attribute value deterministically. Slices
// and arrays are written element by element; everything else — struct
// values such as relational expressions, scalars, and maps, whose keys fmt
// prints sorted — formats deterministically with %#v, which also embeds the
// concrete type name so values of different types never collide, and writes
// a hole, at any depth, as its type alone.
func writeCanonicalValue(w io.Writer, v any) {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s[", rv.Type())
		for i := 0; i < rv.Len(); i++ {
			writeCanonicalValue(w, rv.Index(i).Interface())
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%#v", v)
	}
}
