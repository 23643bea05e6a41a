package server

import (
	"sync"

	"polystorepp/internal/core"
	"polystorepp/internal/lru"
)

// resultCache is a bounded LRU of executed query results keyed on
// (plan-cache key, version vector of the engines/tables the plan touches).
// Entries are sound to share across requests because Results and Reports are
// never mutated after Execute returns (response encoding only reads them).
// Invalidation is by key rotation: a mutation of any *touched* engine or
// table rotates the vector, so stale entries stop being addressable and age
// out of the LRU — while writes to untouched stores leave keys (and so
// cached results) intact.
//
// Admission is cost-aware: the cache is bounded by total result bytes as
// well as entry count, and a single result larger than the whole byte budget
// bypasses the cache instead of flushing it. Resident bytes are charged to
// the tenant whose execution filled each entry, and while more than one
// tenant holds entries each is capped at a share of the budget — one
// tenant's churn evicts its own results, not everyone else's
// (lru.CostCache).
type resultCache struct {
	mu       sync.Mutex
	entries  *lru.CostCache[resultEntry]
	bypassed int64
}

type resultEntry struct {
	res *core.Results
	rep *core.Report
}

// entryOverheadBytes is charged per cached entry on top of the result
// payload, covering the Results/Report structs, map headers, and key.
const entryOverheadBytes = 512

// newResultCache returns a cache bounded to capacity entries (capacity < 1
// is clamped to 1; callers disable caching by not constructing one) and
// maxBytes total result bytes (<= 0 disables the byte bound). share is the
// per-tenant byte fraction enforced under contention (0 selects the
// default).
func newResultCache(capacity int, maxBytes int64, share float64) *resultCache {
	return &resultCache{entries: lru.NewCostShared[resultEntry](capacity, maxBytes, share)}
}

// get returns the cached outcome for key, marking it most recently used.
func (c *resultCache) get(key string) (*core.Results, *core.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(key)
	if !ok {
		return nil, nil, false
	}
	return e.res, e.rep, true
}

// put stores an executed outcome under key, charged at its payload size to
// owner — the tenant whose execution produced it (racing executions of the
// same key produce equivalent results; the incumbent wins). Oversized
// results are bypassed, not admitted.
func (c *resultCache) put(key string, res *core.Results, rep *core.Report, owner string) {
	cost := resultBytes(res) + entryOverheadBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, admitted := c.entries.PutOwned(key, resultEntry{res: res, rep: rep}, cost, owner); !admitted {
		c.bypassed++
	}
}

// resultBytes sizes a result's sink payloads.
func resultBytes(res *core.Results) int64 {
	var n int64
	for _, s := range res.Sinks {
		if b := res.Values[s].Batch; b != nil {
			n += b.ByteSize()
		}
	}
	return n
}

// size returns the current entry count.
func (c *resultCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// bytes returns the summed payload cost of the cached entries, and how many
// oversized results have bypassed admission.
func (c *resultCache) bytes() (total, bypassed int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Cost(), c.bypassed
}

// ownerBytes snapshots per-tenant charged bytes.
func (c *resultCache) ownerBytes() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[string]int64, c.entries.Owners())
	c.entries.EachOwner(func(owner string, cost int64) { m[owner] = cost })
	return m
}
