// Package lru provides the one bounded cache of the serving layer:
// CostCache, bounded by entry count and by summed cost, evicting by
// GreedyDual-Size (least recently used at equal costs), with optional
// per-owner charging. It backs the subplan cache directly and, through Cache
// (every entry costing 1, so strictly LRU), the plan cache and the tenant
// table. Every method is safe for concurrent use, and eviction, bypass and
// owner-charging policy live here and nowhere else.
package lru

// Cache maps string keys to values, evicting the least recently used entry
// past capacity: a CostCache in which every entry costs 1 and nothing else
// is bounded.
type Cache[V any] struct{ c *CostCache[V] }

// New returns a cache bounded to capacity entries. capacity < 1 is treated
// as 1.
func New[V any](capacity int) *Cache[V] { return &Cache[V]{c: NewCost[V](capacity, 0)} }

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.c.Get(key) }

// GetBytes is Get for a key held as bytes: it allocates no string.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) { return c.c.GetBytes(key) }

// Put stores v under key and returns the value now cached: the incumbent
// when the key is already present — racing fills produce equivalent values
// and keeping one lets repeated hits share it — otherwise v.
func (c *Cache[V]) Put(key string, v V) V {
	got, _ := c.c.Put(key, v, 1)
	return got
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.c.Len() }

// Values returns the cached values, most recently used first, without
// changing recency.
func (c *Cache[V]) Values() []V { return c.c.Values() }
