package lru

import (
	"cmp"
	"slices"
	"sync"
)

// CostCache is a map bounded by entry count and by a per-entry cost
// dimension, so one cache bound can mean "at most 64 MiB of cached results"
// instead of only "at most 256 results". It evicts by GreedyDual-Size (Cao
// and Irani, USITS 1997): an insert or a hit gives an entry the priority
// H = L + 1/cost; eviction takes the least H (of equals, the least recently
// used) and raises L to it. Small entries outlive large ones used as
// recently, unused ones age out as L rises, and at equal costs this is LRU.
// Entries whose cost alone exceeds the cost bound are bypassed rather than
// admitted (admitting one would evict the whole cache for an entry unlikely
// to be re-served before aging out).
//
// An entry may be charged to an owner (PutOwned): while more than one owner
// holds entries, each owner's total charge is capped at DefaultTenantShare
// of the cost budget. A tenant flooding the cache with its own results then
// evicts its *own* oldest entries, not everyone else's — cache pollution
// stops being a cross-tenant attack. With a single owner (the common single-tenant
// deployment) no share is enforced and the full budget applies.
//
// It is safe for concurrent use: every method takes the cache's lock, and
// none calls out while holding it.
type CostCache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64 // <= 0 means no cost bound
	cost       int64
	evictions  int64
	lookups    int64
	entries    map[string]*costEntry[V]
	// heap is a min-heap by the priority each entry had when last placed: a
	// hit only raises it, so a hit is O(1) and evictMin re-places the top.
	heap   []*costEntry[V]
	l      float64 // GreedyDual-Size's L: the last evicted minimum's H
	clock  uint64  // stamp of the latest insert or hit
	owners map[string]*ownerCharge[V]
}

type costEntry[V any] struct {
	key  string
	val  V
	cost int64
	// h and seq are the priority and recency stamp of the latest insert or
	// hit; hk and hseq those the heap places the entry by, at index i.
	h, hk     float64
	seq, hseq uint64
	i         int
	// owner is who the entry is charged to (nil for Put), prev/next its ring.
	owner      *ownerCharge[V]
	prev, next *costEntry[V]
}

// ownerCharge is one owner's ledger: summed cost and the sentinel of its
// entries' ring in insertion order (root.next = oldest), the share's order.
type ownerCharge[V any] struct {
	name string
	cost int64
	root costEntry[V]
}

// less orders the heap: by placed priority, then by placed recency.
func (a *costEntry[V]) less(b *costEntry[V]) bool {
	return a.hk < b.hk || a.hk == b.hk && a.hseq < b.hseq
}

// settle places e by its current priority at heap index i, in place of the
// entry there: the hole descends along lesser children to a leaf and e rises
// from there, one comparison per level where e belongs near the leaves.
func (c *CostCache[V]) settle(e *costEntry[V], i int) {
	e.hk, e.hseq = e.h, e.seq
	for j := 2*i + 1; j < len(c.heap); i, j = j, 2*j+1 {
		if j+1 < len(c.heap) && c.heap[j+1].less(c.heap[j]) {
			j++
		}
		c.heap[i], c.heap[j].i = c.heap[j], i
	}
	for ; i > 0 && e.less(c.heap[(i-1)/2]); i = (i - 1) / 2 {
		c.heap[i], c.heap[(i-1)/2].i = c.heap[(i-1)/2], i
	}
	c.heap[i], e.i = e, i
}

// EntryOverheadBytes is what a byte-bounded cache charges per entry on top
// of its payload: the entry, map and heap cells, and the key.
const EntryOverheadBytes = 512

// DefaultTenantShare is the fraction of the cost budget one owner may hold
// while more than one owner holds entries: half, so two contending tenants
// split it evenly and no one tenant can hold more than half while contended.
const DefaultTenantShare = 0.5

// NewCost returns a cache bounded to maxEntries entries (< 1 treated as 1)
// and maxCost total cost (<= 0 disables the cost bound).
func NewCost[V any](maxEntries int, maxCost int64) *CostCache[V] {
	maxEntries = max(maxEntries, 1)
	return &CostCache[V]{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		entries:    make(map[string]*costEntry[V]),
		heap:       make([]*costEntry[V], 0, maxEntries), // a Put never grows it
		owners:     make(map[string]*ownerCharge[V]),
	}
}

// touch gives e the priority L + 1/cost and the latest recency stamp.
func (c *CostCache[V]) touch(e *costEntry[V]) {
	c.clock++
	e.h, e.seq = c.l+1/float64(e.cost), c.clock
}

// Get returns the value under key, renewing its priority.
func (c *CostCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	v, ok := c.found(c.entries[key])
	c.mu.Unlock()
	return v, ok
}

// GetBytes is Get for a key held as bytes: it allocates no string.
func (c *CostCache[V]) GetBytes(key []byte) (V, bool) {
	c.mu.Lock()
	v, ok := c.found(c.entries[string(key)])
	c.mu.Unlock()
	return v, ok
}

// found counts a lookup and returns e's value, renewing its priority (nil e: a miss).
func (c *CostCache[V]) found(e *costEntry[V]) (v V, ok bool) {
	c.lookups++
	if e != nil {
		c.touch(e)
		v, ok = e.val, true
	}
	return v, ok
}

// Put stores v under key with the given cost, charged to no owner. See
// PutOwned for the return values.
func (c *CostCache[V]) Put(key string, v V, cost int64) (V, bool) {
	return c.put(key, v, cost, "", false)
}

// PutOwned stores v under key with the given cost, charged to owner. It
// returns the value now cached plus whether the key is cached at all: the
// incumbent when the key is already present (racing fills produce
// equivalent values; the incumbent's cost and owner are kept), and (v, false)
// when the entry is oversized — its cost alone exceeds the cost bound — and
// was bypassed. An insert evicts other entries until it fits; then, if more
// than one owner holds entries and owner's total charge exceeds its share of
// the budget, owner's oldest entries are evicted (never the entry just
// inserted) until it fits.
//
// Costs below 1 are clamped to 1: every entry occupies real memory beyond
// its payload, and admitting "free" entries would let a flood of zero-cost
// (or, worse, negative-cost) values grow the cache unboundedly under an
// intact-looking cost bound — or drive the running total negative, wedging
// eviction permanently.
func (c *CostCache[V]) PutOwned(key string, v V, cost int64, owner string) (V, bool) {
	return c.put(key, v, cost, owner, true)
}

func (c *CostCache[V]) put(key string, v V, cost int64, owner string, owned bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		return e.val, true
	}
	cost = max(cost, 1)
	if c.maxCost > 0 && cost > c.maxCost {
		return v, false
	}
	for len(c.entries) >= c.maxEntries || (c.maxCost > 0 && c.cost+cost > c.maxCost) {
		c.evictMin()
	}
	e := &costEntry[V]{key: key, val: v, cost: cost}
	c.touch(e)
	c.heap = append(c.heap, e)
	c.settle(e, len(c.heap)-1)
	c.entries[key] = e
	c.cost += cost
	if owned {
		oc := c.owners[owner]
		if oc == nil {
			oc = &ownerCharge[V]{name: owner}
			oc.root.prev, oc.root.next = &oc.root, &oc.root
			c.owners[owner] = oc
		}
		oc.cost += cost
		e.owner, e.prev, e.next = oc, oc.root.prev, &oc.root
		e.prev.next, e.next.prev = e, e
		c.enforceShare(e)
	}
	return v, true
}

// evictMin evicts the entry of least priority and raises L to its H, once
// the top is placed by its current priority (then no entry's is less).
func (c *CostCache[V]) evictMin() {
	for e := c.heap[0]; e.hseq != e.seq; e = c.heap[0] {
		c.settle(e, 0)
	}
	c.l = c.heap[0].h
	c.evict(c.heap[0])
}

// enforceShare trims keep's owner back under its budget share, sparing keep
// (the entry that triggered the trim): a single entry larger than the share
// is admitted — the global cost bound still applies — because evicting the
// newcomer itself would make oversized inserts silently uncacheable for
// contended tenants only. The share of a budget of 1 truncates to 0 but
// never binds: costs are at least 1, so such a cache holds one entry and
// one owner.
func (c *CostCache[V]) enforceShare(keep *costEntry[V]) {
	if c.maxCost <= 0 || len(c.owners) < 2 {
		return
	}
	limit := int64(DefaultTenantShare * float64(c.maxCost))
	for oc := keep.owner; oc.cost > limit && oc.root.next != keep; {
		c.evict(oc.root.next)
	}
}

// evict drops e from the map, the heap and its owner's ledger.
func (c *CostCache[V]) evict(e *costEntry[V]) {
	delete(c.entries, e.key)
	last := c.heap[len(c.heap)-1]
	c.heap[len(c.heap)-1], c.heap = nil, c.heap[:len(c.heap)-1]
	if last != e {
		c.settle(last, e.i)
	}
	c.cost -= e.cost
	c.evictions++
	if oc := e.owner; oc != nil {
		oc.cost -= e.cost
		e.prev.next, e.next.prev = e.next, e.prev
		if oc.root.next == &oc.root {
			delete(c.owners, oc.name)
		}
	}
}

// Len returns the number of cached entries.
func (c *CostCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Values returns the cached values, most recently used first, without
// changing any priority.
func (c *CostCache[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	es := slices.Clone(c.heap)
	slices.SortFunc(es, func(a, b *costEntry[V]) int { return cmp.Compare(b.seq, a.seq) })
	out := make([]V, len(es))
	for i, e := range es {
		out[i] = e.val
	}
	return out
}

// Stats is a point-in-time snapshot of a CostCache.
type Stats struct {
	Entries   int
	Cost      int64 // summed cost of the cached entries
	MaxCost   int64 // the cost bound; <= 0 when there is none
	Evictions int64 // entries evicted over the cache's lifetime
	Lookups   int64 // Get and GetBytes calls over the cache's lifetime
	// Owners is the cost charged to each owner holding entries (nil when
	// none does).
	Owners map[string]int64
}

// Stats snapshots the cache. A nil cache reports zeros, so a disabled cache
// can be a nil pointer.
func (c *CostCache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Entries: len(c.entries), Cost: c.cost, MaxCost: c.maxCost, Evictions: c.evictions, Lookups: c.lookups}
	if len(c.owners) > 0 {
		st.Owners = make(map[string]int64, len(c.owners))
		for owner, oc := range c.owners {
			st.Owners[owner] = oc.cost
		}
	}
	return st
}
