// Package adapter implements the per-engine adapters of Polystore++
// (Figure 4, §III-A4): each adapter co-locates with one data-processing
// engine, receives IR fragments, translates them to native engine calls via
// a rule table — for the relational engine, one kernel call per node over the
// node's finished input batches — executes them, and reports performance
// information back to the middleware. Adapters do not charge hardware cost
// themselves — they return the kernel work items so the executor can cost
// them on whatever device the compiler selected.
package adapter

import (
	"context"
	"errors"
	"fmt"

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/mlengine"
	"polystorepp/internal/relational"
)

// Sentinel errors.
var (
	ErrUnsupported = errors.New("adapter: unsupported operator")
	ErrBadNode     = errors.New("adapter: malformed node")
	ErrBadInput    = errors.New("adapter: bad input value")
)

// Value is the payload flowing along IR edges: a tabular batch for most
// operators, or an opaque model for OpTrain outputs.
type Value struct {
	Batch *cast.Batch
	Model *mlengine.MLP
}

// Rows returns the batch row count (0 for non-tabular values).
func (v Value) Rows() int {
	if v.Batch == nil {
		return 0
	}
	return v.Batch.Rows()
}

// KernelCall is one hardware-kernel-shaped unit of work an operator
// performed, to be costed by the executor.
type KernelCall struct {
	Class    hw.KernelClass
	Work     hw.Work
	OutBytes int64
	// Repeat is how many times in a row the operator made this call (the
	// mini-batch steps of training, the k-means iterations); 0 means once.
	Repeat int
}

// ExecInfo is the per-node execution report sent to the middleware's
// optimizer (§IV-D-d); Native renders from it what the engine ran.
type ExecInfo struct {
	RowsIn  int64
	RowsOut int64
	Kernels []KernelCall
	Path    string // the access path or join orientation a relational kernel chose
	// Parts is the partition fan-out the operator actually used (0 when the
	// operator does not partition) — surfaced in trace spans and the
	// per-operator aggregates (obs.OpStats).
	Parts int
}

// Native renders what ran for n (an engine's operator or the middleware's
// migration) from its bound attributes and info, when a report row or trace
// span is rendered; an unknown kind renders "".
func Native(n *ir.Node, info ExecInfo) string {
	switch n.Kind {
	case ir.OpScan, ir.OpIndexScan, ir.OpHashJoin, ir.OpMergeJoin:
		return info.Path
	case ir.OpFilter:
		pred, _ := n.Attr("pred").(relational.Expr) // a filter without one fails before it reports
		return "Filter" + pred.String()
	case ir.OpLimit:
		return fmt.Sprintf("Limit(%d)", info.RowsOut)
	case ir.OpGraphMatch:
		return fmt.Sprintf("MATCH (:%s)-[:%s]->(:%s)", n.StringAttr("label_a"), n.StringAttr("edge_type"), n.StringAttr("label_b"))
	case ir.OpTextSearch:
		return fmt.Sprintf("Search(%q)", n.StringAttr("query"))
	case ir.OpTSWindow:
		return fmt.Sprintf("EntitySummary(%s*)", n.StringAttr("series_prefix"))
	case ir.OpKVScan:
		return fmt.Sprintf("ScanPrefix(%q)", n.StringAttr("prefix"))
	case ir.OpTrain:
		cols, _ := n.Attr("feature_cols").([]string)
		return fmt.Sprintf("TrainMLP(%d->%d->1, %d epochs)", len(cols), n.IntAttr("hidden"), n.IntAttr("epochs"))
	case ir.OpKMeans:
		return fmt.Sprintf("KMeans(k=%d, %d iters)", n.IntAttr("k"), info.Kernels[0].Repeat) // the one call, made once per iteration
	case ir.OpMigrate:
		return fmt.Sprintf("Migrate(%s->%s, %s)", n.StringAttr("from"), n.StringAttr("to"), migrate.Transport(n.IntAttr("transport")))
	}
	return fixedNative[n.Kind]
}

// fixedNative labels the kinds whose label says nothing more.
var fixedNative = map[ir.OpKind]string{ir.OpProject: "Project", ir.OpSort: "Sort", ir.OpGroupBy: "GroupBy", ir.OpPredict: "Predict"}

// Adapter translates and executes IR nodes on one engine instance.
type Adapter interface {
	// Engine returns the engine instance name this adapter serves.
	Engine() string
	// Execute runs one node whose Engine matches. Inputs are in node input
	// order.
	Execute(ctx context.Context, n *ir.Node, inputs []Value) (Value, ExecInfo, error)
}

// DataVersioner is implemented by adapters whose backing store exposes a
// monotonic mutation counter. Version vectors, which the subplan cache keys
// on, are built from it, so any store mutation invalidates results computed
// over the previous state. Pure adapters (the seeded ML engine) do not
// implement it.
type DataVersioner interface {
	// DataVersion returns the store's current mutation count. It must be
	// monotonically non-decreasing and change on every mutation that could
	// alter query results.
	DataVersion() uint64
}

// Seeded is implemented by adapters whose results are a function of a seed
// (the ML engine), which the version vector carries for their pure nodes.
type Seeded interface{ Seed() int64 }

// Ingest is one serving-path write routed to an engine. Exactly one field
// group applies per engine family; adapters reject writes they cannot
// express.
type Ingest struct {
	// Relational: append one row to Table.
	Table string
	Row   []any
	// Timeseries: append one point to Series.
	Series string
	TS     int64
	Value  float64
	// Key/value: put Data under Key.
	Key  string
	Data []byte
}

// Ingestor is implemented by adapters whose engine accepts serving-path
// writes — the mixed read/write workload's write half. Writes bump the
// store's data version, so cached results over the written data stop being
// addressable.
type Ingestor interface {
	Ingest(ctx context.Context, w Ingest) error
}

// ScopedVersioner narrows DataVersioner to named resources: the relational
// adapter reports the summed mutation counts of exactly the given tables, so
// the serving layer can key cached results on the tables a plan actually
// reads instead of the whole store. Implementations must be monotonic over
// any fixed resource set and change whenever a named resource mutates.
type ScopedVersioner interface {
	ScopedVersion(resources []string) uint64
}
