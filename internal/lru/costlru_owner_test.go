package lru

import "testing"

func TestTenantCostSingleOwnerUncapped(t *testing.T) {
	c := NewCost[int](100, 1000)
	// One owner may use the whole budget: the share only binds under
	// contention.
	for i, k := range []string{"a", "b", "c", "d"} {
		if _, ok := c.PutOwned(k, i, 250, "alice"); !ok {
			t.Fatalf("put %q rejected", k)
		}
	}
	st := c.Stats()
	if st.Cost != 1000 || st.Owners["alice"] != 1000 || len(st.Owners) != 1 {
		t.Fatalf("cost=%d alice=%d owners=%d", st.Cost, st.Owners["alice"], len(st.Owners))
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
}

func TestTenantCostShareEnforcedUnderContention(t *testing.T) {
	c := NewCost[string](100, 1000)
	c.PutOwned("bob-1", "x", 100, "bob")
	// Alice floods: with bob present her charge is capped at 500, evicting
	// her own oldest entries — never bob's.
	for _, k := range []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7"} {
		c.PutOwned(k, "y", 100, "alice")
	}
	if got := c.Stats().Owners["alice"]; got != 500 {
		t.Fatalf("alice charge = %d, want 500", got)
	}
	if got := c.Stats().Owners["bob"]; got != 100 {
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
	c := NewCost[int](100, 300)
	c.PutOwned("a", 1, 150, "alice")
	c.PutOwned("b", 2, 150, "bob")
	// Over budget: evicts LRU ("a"), refunds alice, and leaves bob the one
	// owner, whom the share no longer binds.
	c.PutOwned("c", 3, 150, "bob")
	if got := c.Stats().Owners["alice"]; got != 0 {
		t.Fatalf("alice charge = %d after global eviction, want 0", got)
	}
	if n := len(c.Stats().Owners); n != 1 {
		t.Fatalf("owners = %d, want 1 (alice fully refunded)", n)
	}
	if got := c.Stats().Owners["bob"]; got != 300 {
		t.Fatalf("bob charge = %d, want 300", got)
	}
}

func TestTenantCostIncumbentKeepsOriginalOwner(t *testing.T) {
	c := NewCost[int](100, 1000)
	c.PutOwned("k", 1, 100, "alice")
	got, ok := c.PutOwned("k", 2, 999, "bob")
	if !ok || got != 1 {
		t.Fatalf("incumbent put = (%d, %v), want (1, true)", got, ok)
	}
	st := c.Stats()
	if st.Owners["bob"] != 0 || st.Owners["alice"] != 100 {
		t.Fatalf("charges: alice=%d bob=%d", st.Owners["alice"], st.Owners["bob"])
	}
}

func TestTenantCostOversizedBypassed(t *testing.T) {
	c := NewCost[int](100, 100)
	if _, ok := c.PutOwned("big", 1, 200, "alice"); ok {
		t.Fatal("oversized entry admitted")
	}
	if len(c.Stats().Owners) != 0 || c.Len() != 0 {
		t.Fatal("bypassed entry left a charge behind")
	}
}

func TestTenantCostSingleHugeEntryToleratedUnderContention(t *testing.T) {
	c := NewCost[int](100, 1000)
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
	if got := c.Stats().Owners["alice"]; got != 100 {
		t.Fatalf("alice charge = %d after trim, want 100", got)
	}
}

func TestTenantCostTinyBudgetShareClampsToOne(t *testing.T) {
	// Half of a budget of 1 truncates to a zero limit, which would trim every
	// contended tenant to nothing. It never binds: costs are at least 1, so
	// the cache holds one entry of one owner, and that is the newest.
	c := NewCost[int](100, 1)
	c.PutOwned("bob-1", 1, 1, "bob")
	c.PutOwned("a1", 1, 1, "alice")
	c.PutOwned("a2", 2, 1, "alice")
	if _, ok := c.Get("a2"); !ok {
		t.Fatal("newest entry evicted under a budget of 1")
	}
	if got := c.Stats().Owners["alice"]; got != 1 {
		t.Fatalf("alice charge = %d, want 1", got)
	}
	// A budget of 3 has the smallest share that binds, 1: unit-cost entries
	// trim like any other cost that exceeds the share — the newcomer is
	// spared and older entries go one at a time, not wholesale, and never
	// another owner's.
	c = NewCost[int](100, 3)
	c.PutOwned("bob-1", 1, 1, "bob")
	c.PutOwned("a1", 1, 1, "alice")
	c.PutOwned("a2", 2, 1, "alice")
	if _, ok := c.Get("a2"); !ok {
		t.Fatal("newest entry evicted under tiny-budget share")
	}
	if _, ok := c.Get("a1"); ok {
		t.Fatal("alice's older entry survived the trim")
	}
	if got := c.Stats().Owners["alice"]; got != 1 {
		t.Fatalf("alice charge = %d, want 1 (the share)", got)
	}
	if _, ok := c.Get("bob-1"); !ok {
		t.Fatal("bob's entry evicted by alice's inserts")
	}
}
