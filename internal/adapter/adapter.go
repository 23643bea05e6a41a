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

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/mlengine"
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
// optimizer (§IV-D-d).
type ExecInfo struct {
	RowsIn  int64
	RowsOut int64
	Kernels []KernelCall
	Native  string // what the engine actually ran
	// RuleNodes counts IR-translation rule applications, the work §III-A4
	// proposes offloading to an accelerator.
	RuleNodes int64
	// Parts is the partition fan-out the operator actually used (0 when the
	// operator does not partition) — surfaced in trace spans and the
	// per-operator aggregates (obs.OpStats).
	Parts int
}

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
