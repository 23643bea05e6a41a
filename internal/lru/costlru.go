package lru

import (
	"container/list"
	"sync"
)

// CostCache is a least-recently-used map bounded by entry count and by a
// per-entry cost dimension, so one cache bound can mean "at most 64 MiB of
// cached results" instead of only "at most 256 results". Entries whose cost
// alone exceeds the cost bound are bypassed rather than admitted (admitting
// one would evict the whole cache for an entry unlikely to be re-served
// before aging out).
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
	entries    map[string]*costEntry[V]
	// root is the sentinel of the intrusive recency ring: root.next is the
	// most recently used entry, root.prev the least.
	root   costEntry[V]
	owners map[string]*ownerCharge
}

type costEntry[V any] struct {
	key        string
	val        V
	cost       int64
	prev, next *costEntry[V]
	// owner is who the entry is charged to (nil for plain Put); ownerEl is
	// its cell in the owner's insertion-order list.
	owner   *ownerCharge
	ownerEl *list.Element
}

// ownerCharge is one owner's ledger: summed cost and its entries in
// insertion order (front = oldest), the order the share trims in.
type ownerCharge struct {
	name  string
	cost  int64
	order list.List // values are *costEntry[V]
}

// EntryOverheadBytes is what a byte-bounded cache charges per entry on top
// of its payload: the entry, map and list cells, and the key.
const EntryOverheadBytes = 512

// DefaultTenantShare is the fraction of the cost budget one owner may hold
// while more than one owner holds entries: half, so two contending tenants
// split it evenly and no one tenant can hold more than half while contended.
const DefaultTenantShare = 0.5

// NewCost returns a cache bounded to maxEntries entries (< 1 treated as 1)
// and maxCost total cost (<= 0 disables the cost bound).
func NewCost[V any](maxEntries int, maxCost int64) *CostCache[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &CostCache[V]{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		entries:    make(map[string]*costEntry[V]),
		owners:     make(map[string]*ownerCharge),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// touch makes e the most recently used entry (linking it if it is new).
func (c *CostCache[V]) touch(e *costEntry[V]) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the value under key, marking it most recently used.
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

// found returns e's value, marking it most recently used (nil e: a miss).
func (c *CostCache[V]) found(e *costEntry[V]) (v V, ok bool) {
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
// equivalent values; the incumbent's cost and owner are kept), and
// (v, false) when the entry is oversized — its cost alone exceeds the cost
// bound — and was bypassed. After an insert, if more
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
	e := &costEntry[V]{key: key, val: v, cost: cost}
	c.entries[key] = e
	c.touch(e)
	c.cost += cost
	if owned {
		oc := c.owners[owner]
		if oc == nil {
			oc = &ownerCharge{name: owner}
			c.owners[owner] = oc
		}
		oc.cost += cost
		e.owner, e.ownerEl = oc, oc.order.PushBack(e)
	}
	for len(c.entries) > c.maxEntries || (c.maxCost > 0 && c.cost > c.maxCost) {
		c.evict(c.root.prev)
	}
	if e.owner != nil {
		c.enforceShare(e)
	}
	return v, true
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
	for oc := keep.owner; oc.cost > limit; {
		oldest := oc.order.Front().Value.(*costEntry[V])
		if oldest == keep {
			break
		}
		c.evict(oldest)
	}
}

// evict drops e from the map, the recency ring and its owner's ledger.
func (c *CostCache[V]) evict(e *costEntry[V]) {
	delete(c.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	c.cost -= e.cost
	c.evictions++
	if oc := e.owner; oc != nil {
		oc.cost -= e.cost
		oc.order.Remove(e.ownerEl)
		if oc.order.Len() == 0 {
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
// changing recency.
func (c *CostCache[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.entries))
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.val)
	}
	return out
}

// Stats is a point-in-time snapshot of a CostCache.
type Stats struct {
	Entries   int
	Cost      int64 // summed cost of the cached entries
	MaxCost   int64 // the cost bound; <= 0 when there is none
	Evictions int64 // entries evicted over the cache's lifetime
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
	st := Stats{Entries: len(c.entries), Cost: c.cost, MaxCost: c.maxCost, Evictions: c.evictions}
	if len(c.owners) > 0 {
		st.Owners = make(map[string]int64, len(c.owners))
		for owner, oc := range c.owners {
			st.Owners[owner] = oc.cost
		}
	}
	return st
}
