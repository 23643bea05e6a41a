// Package subplan implements the middleware's content-addressed subplan
// cache: memoized intermediate batches keyed on (subtree fingerprint,
// version vector of the stores the subtree touches). Concurrent cold
// executions of one subtree each execute it and the first publication
// stands (Put keeps the incumbent); identical concurrent requests are merged
// before they execute, by the serving layer's single-flight.
//
// It is one of the serving stack's two caches. The plan cache
// (compiler.PlanCache) memoizes compilation; the subplan cache memoizes
// execution. It answers a repeated read whole — the runtime's root probe
// finds the plan's outermost subtree before any work is admitted — and
// makes *near*-identical traffic cheap: the same scan/filter/join prefix
// under a different projection, limit, or window replays the memoized
// intermediate instead of re-executing the subtree. Keys are position
// independent (ir.Graph.SubtreeFingerprints), so the sharing works across
// distinct plans, and version-vectored, so invalidation is surgical: a
// write to a store the subtree never reads changes nothing.
package subplan

import (
	"sync/atomic"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/lru"
	"polystorepp/internal/migrate"
)

// NodeCost is the execution-report replay data for one node of a memoized
// subtree, indexed by the node's rank in the subtree's sorted closure. A
// cache hit skips the subtree's real execution but still costs every node
// from this record on the simulated clock, so warm Reports are
// byte-identical to cold ones (modulo host wall times, which Reports
// already exclude from equivalence).
type NodeCost struct {
	Info adapter.ExecInfo
	// Migration is a migration's breakdown (nil for every other node).
	Migration *migrate.Breakdown
	BytesIn   int64
	BytesOut  int64
}

// Entry is one memoized subtree execution: the root's output (a batch or a
// trained model) plus per-node costing replay data. Entries are immutable
// once published and may be served to many executions concurrently;
// consumers must not mutate Output.
//
// A batch Output is as the subtree handed it on — selection-backed if that
// is what a filter, sort or join left (see package cast) — because every
// executed candidate publishes and most are never asked for again: publishing
// copies nothing. The first hit proves the entry reused and gathers it, once;
// hits serve Reused.
// Costs points at the publishing execution's records (or an inner hit's):
// publishing copies none, and records hold no batch.
type Entry struct {
	Output adapter.Value
	Costs  []*NodeCost // closure rank -> replay data
	Bytes  int64       // Output payload size (lru cost accounting)

	dense atomic.Pointer[cast.Batch]
}

// Reused returns the output for a hit to serve: a model as published, a
// batch with every column gathered, so that ranges of it are plain views.
// First hits that race each compact (cast gathers a column once whoever
// asks) and one header is kept.
func (e *Entry) Reused() adapter.Value {
	if e.Output.Batch != nil && e.dense.Load() == nil {
		e.dense.CompareAndSwap(nil, e.Output.Batch.Compact())
	}
	return adapter.Value{Batch: e.dense.Load(), Model: e.Output.Model}
}

// maxEntriesFor scales the entry bound with the byte budget so tiny test
// budgets still admit a few entries while production budgets aren't capped
// by entry count before bytes.
func maxEntriesFor(maxBytes int64) int {
	return min(max(int(maxBytes/(4<<10)), 16), 65536)
}

// Cache is a byte-bounded cache of subplan entries: an lru.CostCache, which
// evicts by GreedyDual-Size (small entries outlast large ones), whose Put
// charges each entry its payload plus lru.EntryOverheadBytes to the tenant
// whose execution published it: while more than one tenant holds entries,
// each tenant's bytes are capped at a share of the budget, so one tenant's
// working set cannot evict everyone else's memoized intermediates.
type Cache struct {
	*lru.CostCache[*Entry]
}

// NewCache returns a cache bounded to maxBytes of memoized intermediates
// (plus per-entry overhead), with the default per-tenant share.
func NewCache(maxBytes int64) *Cache {
	return &Cache{lru.NewCost[*Entry](maxEntriesFor(maxBytes), maxBytes)}
}

// Put admits e under key, charging its payload plus overhead to owner (the
// publishing tenant). It returns the entry now cached under key and whether
// the key is cached at all: a racing fill keeps the incumbent (an equivalent
// value), so e was stored only when the entry returned is e, and (e, false)
// means e was oversized and bypassed.
//
// The payload is the output's logical size, the size it has once gathered. A
// selection-backed output owns less than that until someone gathers it (a
// 4-byte row number per row, over storage other holders keep alive) and that
// plus the row numbers afterwards; those are not charged, so what fits the
// budget does not depend on which entries happen to be selection-backed.
func (c *Cache) Put(key string, e *Entry, owner string) (*Entry, bool) {
	return c.PutOwned(key, e, e.Bytes+lru.EntryOverheadBytes, owner)
}
