package lru

import "testing"

// ownerCost reads one owner's charge the way the caches' stats do.
func ownerCost[V any](c *CostCache[V], owner string) (cost int64) {
	c.EachOwner(func(o string, n int64) {
		if o == owner {
			cost = n
		}
	})
	return cost
}

func TestTenantCostSingleOwnerUncapped(t *testing.T) {
	c := NewCostShared[int](100, 1000, 0.5)
	// One owner may use the whole budget: the share only binds under
	// contention.
	for i, k := range []string{"a", "b", "c", "d"} {
		if _, ok := c.PutOwned(k, i, 250, "alice"); !ok {
			t.Fatalf("put %q rejected", k)
		}
	}
	if c.Cost() != 1000 || ownerCost(c, "alice") != 1000 || c.Owners() != 1 {
		t.Fatalf("cost=%d alice=%d owners=%d", c.Cost(), ownerCost(c, "alice"), c.Owners())
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0", c.Evictions())
	}
}

func TestTenantCostShareEnforcedUnderContention(t *testing.T) {
	c := NewCostShared[string](100, 1000, 0.5)
	c.PutOwned("bob-1", "x", 100, "bob")
	// Alice floods: with bob present her charge is capped at 500, evicting
	// her own oldest entries — never bob's.
	for _, k := range []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7"} {
		c.PutOwned(k, "y", 100, "alice")
	}
	if got := ownerCost(c, "alice"); got != 500 {
		t.Fatalf("alice charge = %d, want 500", got)
	}
	if got := ownerCost(c, "bob"); got != 100 {
		t.Fatalf("bob charge = %d, want 100 (victim of alice's flood)", got)
	}
	if _, ok := c.Get("bob-1"); !ok {
		t.Fatal("bob's entry evicted by alice's flood")
	}
	// Alice's oldest entries went first.
	for _, gone := range []string{"a1", "a2"} {
		if _, ok := c.Get(gone); ok {
			t.Fatalf("%q should have been evicted", gone)
		}
	}
	for _, kept := range []string{"a3", "a4", "a5", "a6", "a7"} {
		if _, ok := c.Get(kept); !ok {
			t.Fatalf("%q should have survived", kept)
		}
	}
}

func TestTenantCostGlobalEvictionRefundsOwner(t *testing.T) {
	c := NewCostShared[int](100, 300, 1) // share 1: only the global bound binds
	c.PutOwned("a", 1, 150, "alice")
	c.PutOwned("b", 2, 150, "bob")
	c.PutOwned("c", 3, 150, "bob") // over budget: evicts LRU ("a"), refunds alice
	if got := ownerCost(c, "alice"); got != 0 {
		t.Fatalf("alice charge = %d after global eviction, want 0", got)
	}
	if c.Owners() != 1 {
		t.Fatalf("owners = %d, want 1 (alice fully refunded)", c.Owners())
	}
	if got := ownerCost(c, "bob"); got != 300 {
		t.Fatalf("bob charge = %d, want 300", got)
	}
}

func TestTenantCostIncumbentKeepsOriginalOwner(t *testing.T) {
	c := NewCostShared[int](100, 1000, 0.5)
	c.PutOwned("k", 1, 100, "alice")
	got, ok := c.PutOwned("k", 2, 999, "bob")
	if !ok || got != 1 {
		t.Fatalf("incumbent put = (%d, %v), want (1, true)", got, ok)
	}
	if ownerCost(c, "bob") != 0 || ownerCost(c, "alice") != 100 {
		t.Fatalf("charges: alice=%d bob=%d", ownerCost(c, "alice"), ownerCost(c, "bob"))
	}
}

func TestTenantCostOversizedBypassed(t *testing.T) {
	c := NewCostShared[int](100, 100, 0.5)
	if _, ok := c.PutOwned("big", 1, 200, "alice"); ok {
		t.Fatal("oversized entry admitted")
	}
	if c.Owners() != 0 || c.Len() != 0 {
		t.Fatal("bypassed entry left a charge behind")
	}
}

func TestTenantCostSingleHugeEntryToleratedUnderContention(t *testing.T) {
	c := NewCostShared[int](100, 1000, 0.5)
	c.PutOwned("b", 1, 100, "bob")
	// Alice's single 700-cost entry exceeds her 500 share but is her only
	// entry: admitted (the global bound still protects the cache).
	if _, ok := c.PutOwned("a", 2, 700, "alice"); !ok {
		t.Fatal("single over-share entry rejected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("over-share entry self-evicted")
	}
	// Her next insert trims back toward the share, evicting her oldest.
	c.PutOwned("a2", 3, 100, "alice")
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest over-share entry survived the trim")
	}
	if got := ownerCost(c, "alice"); got != 100 {
		t.Fatalf("alice charge = %d after trim, want 100", got)
	}
}

func TestCostCacheRemove(t *testing.T) {
	c := NewCost[int](10, 100)
	c.PutOwned("a", 1, 10, "alice")
	if !c.Remove("a") {
		t.Fatal("Remove missed present key")
	}
	if c.Remove("a") {
		t.Fatal("Remove found absent key")
	}
	if c.Cost() != 0 || c.Len() != 0 || c.Evictions() != 1 {
		t.Fatalf("cost=%d len=%d evictions=%d", c.Cost(), c.Len(), c.Evictions())
	}
	if ownerCost(c, "alice") != 0 || c.Owners() != 0 {
		t.Fatalf("removal left alice charged %d (%d owners)", ownerCost(c, "alice"), c.Owners())
	}
}

func TestTenantCostTinyBudgetShareClampsToOne(t *testing.T) {
	// share * maxCost < 1 truncates to a zero limit, which used to trim every
	// contended tenant down to a single entry no matter how cheap its
	// entries were. The limit clamps to >= 1, so unit-cost entries behave
	// like any other cost that exceeds the share: the newcomer is spared and
	// older entries trim one at a time, not wholesale.
	c := NewCostShared[int](100, 4, 0.1) // share limit would truncate to 0
	c.PutOwned("bob-1", 1, 1, "bob")
	c.PutOwned("a1", 1, 1, "alice")
	c.PutOwned("a2", 2, 1, "alice")
	// Alice is over the clamped limit (1), so her older entry trims — but
	// she keeps the newest rather than being flushed to nothing.
	if _, ok := c.Get("a2"); !ok {
		t.Fatal("newest entry evicted under tiny-budget share")
	}
	if got := ownerCost(c, "alice"); got < 1 {
		t.Fatalf("alice charge = %d, want >= 1 (clamped share)", got)
	}
	if _, ok := c.Get("bob-1"); !ok {
		t.Fatal("bob's entry evicted by alice's inserts")
	}
}
