// Package ir defines the intermediate representation of Polystore++
// (§IV-B1 of the paper): a flat annotated DAG whose nodes are operators
// tagged with the engine (and optionally the hardware device) that executes
// them. Cross-engine edges imply data migration, exactly as in the annotated
// data-flow graph of Figure 5. Every declared operator kind is one some
// frontend or compiler pass builds and some engine executes. The paper's
// hierarchical IR — control nodes, each holding a nested data-flow graph — is
// not implemented: nothing here loops or nests.
package ir

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// OpKind enumerates the operator taxonomy across all engines (§III-A1).
type OpKind int

// Operator kinds. Grouped by the engine family that natively executes them.
const (
	// Relational.
	OpScan OpKind = iota + 1
	OpIndexScan
	OpFilter
	OpProject
	OpHashJoin
	OpMergeJoin
	OpSort
	OpGroupBy
	OpLimit

	// Graph.
	OpGraphMatch

	// Text.
	OpTextSearch

	// Timeseries.
	OpTSWindow

	// Key/value.
	OpKVScan

	// ML/DL.
	OpTrain
	OpPredict
	OpKMeans

	// Movement.
	OpMigrate
)

// opProps are the yes/no questions the middleware asks about an operator
// kind. A new question is a new bit here and a new column in ops, not a map
// in the package that asks.
type opProps uint8

const (
	// relational: natively executed by the relational engine, so predicate
	// and projection expressions may be pushed onto it.
	relational opProps = 1 << iota
	// pure: consumes only its dataflow inputs and never reads engine
	// storage, so it adds no version dependency whichever engine hosts it.
	pure
	// cacheable: output is a deterministic function of the dataflow inputs
	// and the stores read at a fixed version vector — safe to memoize and
	// replay. The ML kinds are: their adapter's fixed seed is in the key,
	// training starts from initial weights memoized per seed and sizes, and
	// k-means from a reseeded source. Graph and text reads (not
	// table-version-scoped today) and anything with side effects are not.
	cacheable
	// offloadable: the dominant kernels have accelerator implementations;
	// the runtime picks the device by cost when the node is Device="auto".
	offloadable
)

// ops declares every operator kind once: its name and its properties.
var ops = [...]struct {
	name  string
	props opProps
}{
	OpScan:      {"scan", relational | cacheable},
	OpIndexScan: {"index-scan", relational | cacheable},
	OpFilter:    {"filter", relational | pure | cacheable | offloadable},
	OpProject:   {"project", relational | pure | cacheable | offloadable},
	OpHashJoin:  {"hash-join", relational | pure | cacheable | offloadable},
	OpMergeJoin: {"merge-join", relational | pure | cacheable | offloadable},
	OpSort:      {"sort", relational | pure | cacheable | offloadable},
	OpGroupBy:   {"group-by", relational | pure | cacheable | offloadable},
	OpLimit:     {"limit", relational | pure | cacheable},

	OpGraphMatch: {"graph-match", 0},

	OpTextSearch: {"text-search", 0},

	OpTSWindow: {"ts-window", cacheable | offloadable},

	OpKVScan: {"kv-scan", cacheable},

	OpTrain:   {"train", pure | cacheable | offloadable},
	OpPredict: {"predict", pure | cacheable | offloadable},
	OpKMeans:  {"kmeans", pure | cacheable | offloadable},

	OpMigrate: {"migrate", cacheable | offloadable},
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k.Valid() {
		return ops[k].name
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Valid reports whether k is a declared operator kind.
func (k OpKind) Valid() bool { return k > 0 && int(k) < len(ops) && ops[k].name != "" }

func (k OpKind) has(p opProps) bool { return k.Valid() && ops[k].props&p != 0 }

// Relational reports whether the relational engine executes k natively.
func (k OpKind) Relational() bool { return k.has(relational) }

// Pure reports whether k reads no engine storage.
func (k OpKind) Pure() bool { return k.has(pure) }

// Cacheable reports whether k's output may be memoized by the subplan cache.
func (k OpKind) Cacheable() bool { return k.has(cacheable) }

// Offloadable reports whether k's kernels have accelerator implementations.
func (k OpKind) Offloadable() bool { return k.has(offloadable) }

// NodeID identifies a node within one graph.
type NodeID int

// Node is one operator instance.
type Node struct {
	ID     NodeID
	Kind   OpKind
	Engine string // engine instance that executes the node ("" = middleware)
	// Device optionally pins the node to a hardware device by name; the
	// compiler's kernel-selection pass fills this (§IV-A-d).
	Device string
	// Attrs carries operator parameters (SQL text, predicate, table name,
	// join columns...). Keys are operator-specific and documented at the
	// adapter that consumes them.
	Attrs map[string]any
	// Bound holds the values of Attrs' holes bound for one execution, on
	// an execution's copy of the node (sharing Attrs); Attr reads it first.
	Bound []BoundAttr
	// Inputs are the producing nodes, in argument order.
	Inputs []NodeID
}

// BoundAttr is one attribute value bound for an execution (Node.Bound).
type BoundAttr struct {
	Key   string
	Value any
}

// Attr returns the named attribute, a bound value before Attrs' own (nil
// when absent).
func (n *Node) Attr(key string) any {
	for i := range n.Bound {
		if n.Bound[i].Key == key {
			return n.Bound[i].Value
		}
	}
	return n.Attrs[key]
}

// StringAttr returns a string attribute ("" when absent or mistyped).
func (n *Node) StringAttr(key string) string {
	s, _ := n.Attr(key).(string)
	return s
}

// IntAttr returns an int64 attribute (0 when absent; accepts int too).
func (n *Node) IntAttr(key string) int64 {
	switch v := n.Attr(key).(type) {
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}

// Graph is a DAG of operator nodes.
type Graph struct {
	nodes  map[NodeID]*Node
	nextID NodeID
	// binds is the bind vector: the constants the graph's holes stand for,
	// by slot (see Hole).
	binds []any
}

// Sentinel errors.
var (
	ErrValidate = errors.New("ir: invalid graph")
	ErrNoNode   = errors.New("ir: node not found")
)

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[NodeID]*Node), nextID: 1}
}

// Add inserts a node with the given kind, engine, attributes and inputs,
// returning its id.
func (g *Graph) Add(kind OpKind, engine string, attrs map[string]any, inputs ...NodeID) NodeID {
	id := g.nextID
	g.nextID++
	if attrs == nil {
		attrs = map[string]any{}
	}
	g.nodes[id] = &Node{ID: id, Kind: kind, Engine: engine, Attrs: attrs, Inputs: append([]NodeID(nil), inputs...)}
	return id
}

// Node returns the node by id.
func (g *Graph) Node(id NodeID) (*Node, error) {
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	return n, nil
}

// MustNode returns the node or panics — for compiler passes operating on
// graphs they already validated.
func (g *Graph) MustNode(id NodeID) *Node {
	n, err := g.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// IDBound returns one more than the highest id Add has handed out: every
// node id lies below it, so per-node state can be a slice indexed by id.
func (g *Graph) IDBound() int { return int(g.nextID) }

// Binds returns the bind vector: binds[s] is the constant the holes of slot s
// stand for. Frontends append to it as they lift literals (SetBinds).
func (g *Graph) Binds() []any { return g.binds }

// SetBinds replaces the bind vector.
func (g *Graph) SetBinds(binds []any) { g.binds = binds }

// Nodes returns all nodes sorted by id.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Consumers returns the ids of nodes reading from id, sorted.
func (g *Graph) Consumers(id NodeID) []NodeID {
	var out []NodeID
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			if in == id {
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}

// ConsumerIndex returns the full producer -> consumers adjacency in one
// pass, each consumer list sorted by id. Schedulers use this instead of
// per-node Consumers calls, which are quadratic over the graph.
func (g *Graph) ConsumerIndex() map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, len(g.nodes))
	for _, n := range g.nodes {
		seen := make(map[NodeID]bool, len(n.Inputs))
		for _, in := range n.Inputs {
			if seen[in] {
				continue
			}
			seen[in] = true
			out[in] = append(out[in], n.ID)
		}
	}
	for _, cs := range out {
		slices.Sort(cs)
	}
	return out
}

// Sinks returns nodes with no consumers, sorted by id.
func (g *Graph) Sinks() []NodeID {
	consumed := make(map[NodeID]bool)
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	var out []NodeID
	for _, n := range g.Nodes() {
		if !consumed[n.ID] {
			out = append(out, n.ID)
		}
	}
	return out
}

// Validate checks structural invariants: known kinds, existing inputs and
// acyclicity.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if !n.Kind.Valid() {
			return fmt.Errorf("%w: node %d has invalid kind %d", ErrValidate, n.ID, int(n.Kind))
		}
		for _, in := range n.Inputs {
			if _, ok := g.nodes[in]; !ok {
				return fmt.Errorf("%w: node %d reads missing node %d", ErrValidate, n.ID, in)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns the node ids in a topological order (inputs before
// consumers), or an error if the graph has a cycle. The order is
// deterministic: of the nodes whose producers are all placed, the smallest id
// goes next.
func (g *Graph) TopoSort() ([]NodeID, error) {
	consumers := g.ConsumerIndex()
	// waits counts each node's distinct producers not yet placed.
	waits := make(map[NodeID]int, len(g.nodes))
	for p, cs := range consumers {
		if _, ok := g.nodes[p]; ok {
			for _, c := range cs {
				waits[c]++
			}
		}
	}
	var ready []NodeID
	for id := range g.nodes {
		if waits[id] == 0 {
			ready = append(ready, id)
		}
	}
	slices.Sort(ready)
	out := make([]NodeID, 0, len(g.nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, c := range consumers[id] {
			if waits[c]--; waits[c] == 0 {
				i, _ := slices.BinarySearch(ready, c)
				ready = slices.Insert(ready, i, c)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, fmt.Errorf("%w: cycle detected", ErrValidate)
	}
	return out, nil
}

// Stages groups the topological order into layers where every node's inputs
// live in strictly earlier layers — the stage pipeline of §IV-D.
func (g *Graph) Stages() ([][]NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make(map[NodeID]int, len(order))
	maxLevel := 0
	for _, id := range order {
		n := g.nodes[id]
		l := 0
		for _, in := range n.Inputs {
			l = max(l, level[in]+1)
		}
		level[id] = l
		maxLevel = max(maxLevel, l)
	}
	out := make([][]NodeID, maxLevel+1)
	for _, id := range order {
		out[level[id]] = append(out[level[id]], id)
	}
	return out, nil
}

// Clone deep-copies the graph and its bind vector (attribute values and bound
// constants are shallow-copied; they are treated as immutable by convention).
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	out.nextID = g.nextID
	out.binds = slices.Clone(g.binds)
	for id, n := range g.nodes {
		cp := &Node{
			ID:     n.ID,
			Kind:   n.Kind,
			Engine: n.Engine,
			Device: n.Device,
			Attrs:  make(map[string]any, len(n.Attrs)),
			Inputs: append([]NodeID(nil), n.Inputs...),
		}
		for k, v := range n.Attrs {
			cp.Attrs[k] = v
		}
		out.nodes[id] = cp
	}
	return out
}

// String renders the graph, one node per line in topological order.
func (g *Graph) String() string {
	order, err := g.TopoSort()
	if err != nil {
		order = nil
		for _, n := range g.Nodes() {
			order = append(order, n.ID)
		}
	}
	var sb strings.Builder
	for _, id := range order {
		n := g.nodes[id]
		fmt.Fprintf(&sb, "%3d: %-14s engine=%-10s", n.ID, n.Kind, n.Engine)
		if n.Device != "" {
			fmt.Fprintf(&sb, " device=%-14s", n.Device)
		}
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&sb, " inputs=%v", n.Inputs)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
