package lru

import (
	"fmt"
	"testing"
)

func TestCostEviction(t *testing.T) {
	c := NewCost[string](100, 10)
	c.Put("a", "a", 4)
	c.Put("b", "b", 4)
	if _, ok := c.Get("a"); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	c.Put("c", "c", 4) // cost 12 > 10: evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being MRU")
	}
	st := c.Stats()
	if st.Cost != 8 || c.Len() != 2 {
		t.Fatalf("cost=%d len=%d, want 8, 2", st.Cost, c.Len())
	}
}

func TestCostOversizedBypass(t *testing.T) {
	c := NewCost[string](100, 10)
	c.Put("small", "s", 2)
	if _, admitted := c.Put("huge", "h", 11); admitted {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry cached")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("bypass evicted an unrelated entry")
	}
	if cost := c.Stats().Cost; cost != 2 || c.Len() != 1 {
		t.Fatalf("cost=%d len=%d after bypass, want 2 and 1", cost, c.Len())
	}
}

func TestCostEntryCapStillHolds(t *testing.T) {
	c := NewCost[int](2, 0) // no cost bound
	c.Put("a", 1, 100)
	c.Put("b", 2, 100)
	c.Put("c", 3, 100)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want entry cap 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
}

// TestCostZeroCostCannotEvadeBound pins the clamp on free entries: a flood
// of 0-cost values must not grow the cache past its cost bound (each entry
// charges at least 1), and the evictions it forces are counted.
func TestCostZeroCostCannotEvadeBound(t *testing.T) {
	c := NewCost[int](1<<20, 8)
	const n = 100
	for i := 0; i < n; i++ {
		if _, admitted := c.Put(fmt.Sprintf("k%d", i), i, 0); !admitted {
			t.Fatalf("zero-cost entry %d bypassed", i)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d after %d zero-cost puts, want cost bound 8", c.Len(), n)
	}
	st := c.Stats()
	if st.Cost != 8 {
		t.Fatalf("cost = %d, want 8 (1 per clamped entry)", st.Cost)
	}
	if st.Evictions != n-8 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-8)
	}
}

// TestCostNegativeCostCannotWedgeEviction pins that a negative cost cannot
// drive the running total negative — which would let later entries
// accumulate past the bound before eviction ever fires.
func TestCostNegativeCostCannotWedgeEviction(t *testing.T) {
	c := NewCost[int](100, 10)
	c.Put("neg", 1, -50)
	if cost := c.Stats().Cost; cost != 1 {
		t.Fatalf("cost = %d after negative-cost put, want clamp to 1", cost)
	}
	c.Put("a", 2, 10) // 1 + 10 > 10: must evict "neg", not absorb it as headroom
	if _, ok := c.Get("neg"); ok {
		t.Fatal("negative-cost entry survived past the cost bound")
	}
	st := c.Stats()
	if st.Cost != 10 || c.Len() != 1 {
		t.Fatalf("cost=%d len=%d, want 10, 1", st.Cost, c.Len())
	}
}

func TestCostPutKeepsIncumbent(t *testing.T) {
	c := NewCost[int](4, 100)
	if got, ok := c.Put("k", 1, 10); !ok || got != 1 {
		t.Fatalf("first put = (%d, %v)", got, ok)
	}
	if got, ok := c.Put("k", 2, 50); !ok || got != 1 {
		t.Fatalf("second put = (%d, %v), want incumbent (1, true)", got, ok)
	}
	if cost := c.Stats().Cost; cost != 10 {
		t.Fatalf("cost = %d, want incumbent's 10", cost)
	}
}

func TestNilCostCacheStatsZero(t *testing.T) {
	var c *CostCache[int]
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 || st.MaxCost != 0 || st.Owners != nil {
		t.Fatalf("nil cache stats = %+v, want zeros", st)
	}
}
