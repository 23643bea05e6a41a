package lru

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCostCacheConcurrent pins the concurrency contract: goroutines
// interleave Get, Put, PutOwned (two owners and the unowned, share 0.5,
// some entries oversized) and Stats on one cache. Every snapshot stays
// within the bounds, and once they join the ledgers agree with the live
// entries: the cost is the sum of their costs, and each owner's charge the
// sum of its entries'. CI repeats it under -race.
func TestCostCacheConcurrent(t *testing.T) {
	const (
		workers    = 8
		ops        = 3000
		maxEntries = 48
		maxCost    = 1000
	)
	// Each value records its own cost and owner, so the entries can be
	// summed back after the fact.
	type val struct {
		cost  int64
		owner string
	}
	c := NewCost[val](maxEntries, maxCost)
	owners := []string{"alice", "bob"}
	var bypassed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				key := "k" + strconv.Itoa(rng.Intn(200))
				cost := int64(1 + rng.Intn(100))
				if rng.Intn(50) == 0 {
					cost = maxCost + 1 // oversized: bypassed
				}
				switch rng.Intn(4) {
				case 0:
					c.Get(key)
				case 1:
					if _, ok := c.Put(key, val{cost: cost}, cost); !ok {
						bypassed.Add(1)
					}
				case 2:
					o := owners[rng.Intn(len(owners))]
					if _, ok := c.PutOwned(key, val{cost: cost, owner: o}, cost, o); !ok {
						bypassed.Add(1)
					}
				case 3:
					if st := c.Stats(); st.Entries > maxEntries || st.Cost > maxCost {
						t.Errorf("snapshot over bounds: %d entries, cost %d", st.Entries, st.Cost)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	st := c.Stats()
	var cost, owned int64
	perOwner := make(map[string]int64)
	for _, v := range c.Values() {
		cost += v.cost
		if v.owner != "" {
			owned += v.cost
			perOwner[v.owner] += v.cost
		}
	}
	if st.Cost != cost {
		t.Fatalf("Stats cost %d, live entries sum to %d", st.Cost, cost)
	}
	var charged int64
	for o, n := range st.Owners {
		charged += n
		if perOwner[o] != n {
			t.Fatalf("owner %q charged %d, its live entries sum to %d", o, n, perOwner[o])
		}
	}
	if charged != owned || len(st.Owners) != len(perOwner) {
		t.Fatalf("owners charged %d over %d owners, owned entries sum to %d over %d", charged, len(st.Owners), owned, len(perOwner))
	}
	if st.Entries != c.Len() || st.Entries > maxEntries || st.Cost > maxCost {
		t.Fatalf("%d entries (Len %d), cost %d: over bounds %d, %d", st.Entries, c.Len(), st.Cost, maxEntries, maxCost)
	}
	if bypassed.Load() == 0 || st.Evictions == 0 {
		t.Fatalf("bypassed %d, evictions %d: the run exercised neither", bypassed.Load(), st.Evictions)
	}
}
