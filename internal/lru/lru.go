// Package lru provides the bounded least-recently-used map backing the
// serving layer's plan, result and subplan caches, so eviction, recency and
// owner-charging logic lives in one place (CostCache).
package lru

// Cache maps string keys to values, evicting the least recently used entry
// past capacity: a CostCache in which every entry costs 1 and nothing else
// is bounded. It is NOT safe for concurrent use: callers guard it with
// their own lock alongside their hit/miss accounting.
type Cache[V any] struct{ c *CostCache[V] }

// New returns a cache bounded to capacity entries. capacity < 1 is treated
// as 1.
func New[V any](capacity int) *Cache[V] { return &Cache[V]{c: NewCost[V](capacity, 0)} }

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.c.Get(key) }

// Put stores v under key and returns the value now cached: the incumbent
// when the key is already present — racing fills produce equivalent values
// and keeping one lets repeated hits share it — otherwise v.
func (c *Cache[V]) Put(key string, v V) V {
	got, _ := c.c.Put(key, v, 1)
	return got
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.c.Len() }

// Each visits every cached entry, most recently used first, without
// changing recency. fn must not call back into the cache.
func (c *Cache[V]) Each(fn func(key string, v V)) { c.c.Each(fn) }
