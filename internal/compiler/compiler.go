// Package compiler implements the Polystore++ compiler (§IV-B): a frontend
// that checks the heterogeneous program graph assembled by the EIDE, a core
// that runs the L1 cross-engine optimizations of Figure 6 (migration
// insertion, predicate/projection pushdown across engine boundaries,
// accelerator kernel selection), and a backend that lowers the optimized IR
// to a staged execution plan for the middleware. L1 has no dead-node
// elimination: in a graph Validate accepts a node nothing consumes is itself
// a sink, so every node feeds a sink and none is dead. L2 (engine-local planning, e.g. index
// selection inside the relational engine) and L3 (implementation-level
// choices, e.g. binary pipes vs CSV for migration) are controlled here as
// options so experiments can ablate the levels.
package compiler

import (
	"errors"
	"fmt"
	"slices"

	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
)

// Sentinel errors.
var (
	ErrCompile = errors.New("compiler: compile")
)

// Options selects optimization behaviour.
type Options struct {
	// Level is the cumulative optimization level (Figure 6):
	//   0 — no cross-engine optimization: operators run where written,
	//       full intermediate results migrate, once per consuming edge.
	//   1 — +L1: predicate/projection pushdown across engine boundaries,
	//       one migration per producer and destination engine carrying
	//       only the columns read there. (Nothing is removed: every node
	//       of a valid graph feeds a sink.)
	//   2 — +L2: engine-local optimizations (adapters may use indexes and
	//       native physical plans).
	//   3 — +L3: implementation-level choices (binary pipe migration,
	//       vectorized kernels).
	Level int
	// Accel enables accelerator kernel selection (§IV-A-d): offloadable
	// nodes are marked for runtime device choice.
	Accel bool
	// Transport overrides the migration transport; zero lets the level
	// decide (CSV below L3, Pipe at L3).
	Transport migrate.Transport
}

// Plan is the backend output: an optimized graph plus its stage schedule.
// Every field but Binds describes the statement's shape and is shared by
// every execution of it.
type Plan struct {
	// Graph is the optimized graph. Its holes stand for the constants in
	// Binds; it carries no bind vector of its own.
	Graph  *ir.Graph
	Stages [][]ir.NodeID
	// Subtrees are the plan's subplan-cache candidates, outermost first
	// (see subtreesOf). Computed once per compile; Plans are cached and
	// shared across goroutines, so this — like every Plan field — is
	// read-only after Compile returns.
	Subtrees []Subtree
	// Order is Graph's nodes in topological order (ir.Graph.TopoSort), the
	// order the runtime costs them in, and Sinks the ids of the nodes no
	// other reads, ascending.
	Order []*ir.Node
	Sinks []ir.NodeID
	// Bound maps each node whose attributes hold holes to the keys of
	// those attributes: what the runtime binds before the node runs. Slots
	// is one more than the highest slot any hole holds — the shortest bind
	// vector the plan executes with.
	Bound map[ir.NodeID][]string
	Slots int
	// Binds is the bind vector of the statement this plan executes: the
	// constants its holes stand for. Compile takes it from the input graph;
	// a plan-cache hit is executed as a copy of the shared plan carrying the
	// requester's own.
	Binds []any
	// Touches is the data the input graph reads (TouchesOf), taken before
	// any pass: a result key must be derived alike whether or not the plan
	// was cached, and a pass that removes a scan must not split one query
	// across two keys.
	Touches Touches
	// Key is the plan-cache key the plan was compiled under
	// (PlanCache.Compile); "" for a plan compiled outside a cache.
	Key string
}

// Compile runs frontend checks, core passes, and the backend lowering.
// The input graph is not mutated.
//
// No pass reads a constant: pushdown, migration insertion and offload
// marking read kinds, engines, wiring and column names, and the L2
// access-path pass copies a predicate without looking into it — whether and
// how far a scan seeks is decided at execution (relational.Table.SeekRange). So one plan serves every bind vector of its
// shape, and the plan cache keys on the shape alone.
func Compile(g *ir.Graph, opts Options) (*Plan, error) {
	// Frontend: structural validation of the multi-subprogram graph.
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	work := g.Clone()

	// Core (L1) passes.
	if opts.Level >= 1 {
		pushdownAcrossEngines(work)
	}

	// L2: engine-local physical planning — scans learn the predicate their
	// filter applies, so the engine may seek instead of reading the heap.
	if opts.Level >= 2 {
		selectIndexScans(work)
	}

	// Migration insertion: cross-engine data moves through explicit
	// OpMigrate nodes carrying the transport choice (an L3 decision); from
	// L1 on, one per producer and destination engine, carrying only the
	// columns read there.
	tr := opts.Transport
	if tr == 0 {
		if opts.Level >= 3 {
			tr = migrate.Pipe
		} else {
			tr = migrate.CSV
		}
	}
	insertMigrations(work, tr, opts.Level >= 1)

	// Kernel selection: mark offloadable nodes for runtime device choice.
	if opts.Accel {
		markOffloadable(work)
	}

	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("%w: post-pass validation: %v", ErrCompile, err)
	}
	stages, err := work.Stages()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	ids, err := work.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	work.SetBinds(nil)
	plan := &Plan{
		Graph:    work,
		Stages:   stages,
		Subtrees: subtreesOf(work),
		Order:    make([]*ir.Node, len(ids)),
		Sinks:    work.Sinks(),
		Binds:    g.Binds(),
		Touches:  TouchesOf(g),
	}
	for i, id := range ids {
		n := work.MustNode(id)
		plan.Order[i] = n
		for k, v := range n.Attrs {
			slots := ir.AppendSlots(nil, v)
			if len(slots) == 0 {
				continue
			}
			if plan.Bound == nil {
				plan.Bound = make(map[ir.NodeID][]string)
			}
			plan.Bound[id] = append(plan.Bound[id], k)
			plan.Slots = max(plan.Slots, slices.Max(slots)+1)
		}
	}
	return plan, nil
}

// pushdownAcrossEngines moves Filter and Project nodes that consume a
// producer on a different engine onto the producer's engine, so the data
// shrinks before it crosses the boundary (§III-A2: filter/project at the
// source; the classic polystore L1 optimization).
func pushdownAcrossEngines(g *ir.Graph) {
	changed := true
	for changed {
		changed = false
		for _, n := range g.Nodes() {
			if n.Kind != ir.OpFilter && n.Kind != ir.OpProject {
				continue
			}
			if len(n.Inputs) != 1 {
				continue
			}
			prod, err := g.Node(n.Inputs[0])
			if err != nil {
				continue
			}
			// Only push down onto relational producers: the predicate and
			// projection expressions are relational-engine constructs.
			if prod.Engine == n.Engine || !prod.Kind.Relational() {
				continue
			}
			// The producer must have no other consumers, otherwise the
			// pushdown would change their inputs.
			if len(g.Consumers(prod.ID)) != 1 {
				continue
			}
			n.Engine = prod.Engine
			changed = true
		}
	}
}

// insertMigrations adds explicit OpMigrate nodes where a producer's output
// crosses to a consumer on a different engine. Model-producing edges (Train
// -> Predict) do not migrate: the model is middleware state.
//
// Without shared (L0, the naive baseline) every such edge gets a migration
// of its own carrying every column. With it (the L1 pass) the consumers of
// one producer on one engine read a single migration, and when every one of
// them declares the columns it reads (consumerCols) the migration carries a
// "cols" attribute naming their union: only those columns cross.
func insertMigrations(g *ir.Graph, tr migrate.Transport, shared bool) {
	type route struct {
		from ir.NodeID
		to   string
	}
	var migs map[route]ir.NodeID // made at the first crossing: most plans have none
	for _, n := range g.Nodes() {
		if n.Kind == ir.OpMigrate {
			continue
		}
		for i, inID := range n.Inputs {
			prod, err := g.Node(inID)
			if err != nil || prod.Kind == ir.OpMigrate {
				continue
			}
			if prod.Engine == n.Engine {
				continue
			}
			if prod.Kind == ir.OpTrain {
				continue // models move by reference through the middleware
			}
			r := route{inID, n.Engine}
			if mig, ok := migs[r]; ok && shared {
				n.Inputs[i] = mig
				continue
			}
			if migs == nil {
				migs = make(map[route]ir.NodeID)
			}
			migs[r] = g.Add(ir.OpMigrate, "", map[string]any{
				"transport": int64(tr),
				"from":      prod.Engine,
				"to":        n.Engine,
			}, inID)
			n.Inputs[i] = migs[r]
		}
	}
	if !shared || migs == nil {
		return
	}
	consumers := g.ConsumerIndex()
	for _, mig := range migs {
		var cols []string
		for _, c := range consumers[mig] {
			read, ok := consumerCols(g.MustNode(c))
			if !ok {
				cols = nil
				break
			}
			for _, name := range read {
				if !slices.Contains(cols, name) {
					cols = append(cols, name)
				}
			}
		}
		if cols != nil {
			slices.Sort(cols) // an attribute, so it is fingerprinted: one spelling per set
			g.MustNode(mig).Attrs["cols"] = cols
		}
	}
}

// consumerCols returns the input columns an ML consumer declares it reads —
// train its features and label, predict its features, k-means its columns —
// and false for any other consumer, whose reads are not known here.
func consumerCols(n *ir.Node) ([]string, bool) {
	var cols []string
	switch n.Kind {
	case ir.OpTrain:
		features, _ := n.Attr("feature_cols").([]string)
		if label := n.StringAttr("label_col"); len(features) > 0 && label != "" {
			cols = append(slices.Clip(features), label)
		}
	case ir.OpPredict:
		cols, _ = n.Attr("feature_cols").([]string)
	case ir.OpKMeans:
		cols, _ = n.Attr("cols").([]string)
	}
	return cols, len(cols) > 0
}

// markOffloadable pins Device="auto" on nodes the runtime may offload: it
// picks the device by cost (LogCA-style break-even) at execution time.
func markOffloadable(g *ir.Graph) {
	for _, n := range g.Nodes() {
		if n.Device == "" && n.Kind.Offloadable() {
			n.Device = "auto"
		}
	}
}

// selectIndexScans is the L2 engine-local access-path pass of Figure 6: a
// Scan read by a Filter on the same engine, and by nothing else, becomes an
// IndexScan carrying the filter's predicate — a scan that may seek. Whether
// and on which index is the engine's choice at execution time, where the
// catalog is; the compiler knows no engine. The filter stays, so a seek that
// over-approximates the predicate is safe. A predicate is not pushed through
// a join: it would key the join's subtree by the predicate's constants and
// stop the subplan cache sharing it across statements.
func selectIndexScans(g *ir.Graph) {
	for _, n := range g.Nodes() {
		pred, ok := n.Attrs["pred"]
		if n.Kind != ir.OpFilter || len(n.Inputs) != 1 || !ok {
			continue
		}
		scan, err := g.Node(n.Inputs[0])
		if err != nil || scan.Kind != ir.OpScan || scan.Engine != n.Engine || len(g.Consumers(scan.ID)) != 1 {
			continue
		}
		scan.Kind = ir.OpIndexScan
		scan.Attrs["pred"] = pred
	}
}
