package lru

import "testing"

func TestEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := c.Values(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Values = %v, want most recent first: [1 3]", got)
	}
}

func TestPutKeepsIncumbent(t *testing.T) {
	c := New[int](4)
	if got := c.Put("k", 1); got != 1 {
		t.Fatalf("first put returned %d", got)
	}
	if got := c.Put("k", 2); got != 1 {
		t.Fatalf("second put returned %d, want incumbent 1", got)
	}
	if v, _ := c.Get("k"); v != 1 {
		t.Fatalf("cached = %d, want 1", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTinyCapacity(t *testing.T) {
	c := New[string](0) // clamps to 1
	c.Put("a", "x")
	c.Put("b", "y")
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
}
