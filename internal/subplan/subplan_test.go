package subplan

import (
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/lru"
)

func testEntry(t *testing.T, rows int) *Entry {
	t.Helper()
	schema := cast.MustSchema(cast.Column{Name: "v", Type: cast.Int64})
	b := cast.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return &Entry{Output: adapter.Value{Batch: b}, Costs: []*NodeCost{{}, {}}, Bytes: b.ByteSize()}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(1 << 20)
	e := testEntry(t, 10)
	if got, ok := c.Put("k", e, "anon"); !ok || got != e {
		t.Fatal("put did not store a small entry")
	}
	got, ok := c.Get("k")
	if !ok || got != e {
		t.Fatalf("get = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Cost != e.Bytes+lru.EntryOverheadBytes || s.MaxCost != 1<<20 || s.Owners["anon"] != s.Cost {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheOversizedBypass(t *testing.T) {
	c := NewCache(256) // smaller than any real batch + overhead
	e := testEntry(t, 100)
	if _, ok := c.Put("k", e, "anon"); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("bypassed entry is retrievable")
	}
}

func TestCacheByteBoundEvicts(t *testing.T) {
	e := testEntry(t, 100)
	per := e.Bytes + lru.EntryOverheadBytes
	c := NewCache(3 * per)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if _, ok := c.Put(k, testEntry(t, 100), "anon"); !ok {
			t.Fatalf("put %s bypassed", k)
		}
	}
	s := c.Stats()
	if s.Cost > 3*per {
		t.Fatalf("bytes %d exceed bound %d", s.Cost, 3*per)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived past the byte bound")
	}
	if _, ok := c.Get("e"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestCacheIncumbentWins(t *testing.T) {
	c := NewCache(1 << 20)
	first := testEntry(t, 5)
	second := testEntry(t, 5)
	c.Put("k", first, "anon")
	if got, ok := c.Put("k", second, "anon"); !ok || got != first {
		t.Fatal("racing fill's Put did not report the incumbent")
	}
	got, _ := c.Get("k")
	if got != first {
		t.Fatal("racing fill displaced the incumbent entry")
	}
}
