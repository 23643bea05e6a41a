package subplan

import (
	"sync"
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

func TestFlightLeaderFollower(t *testing.T) {
	f := NewFlight()
	leader, done := f.Acquire("k")
	if !leader || done != nil {
		t.Fatalf("first acquire: leader=%v done=%v", leader, done)
	}
	l2, d2 := f.Acquire("k")
	if l2 || d2 == nil {
		t.Fatal("second acquire became leader")
	}
	select {
	case <-d2:
		t.Fatal("done closed before release")
	default:
	}
	f.Release("k")
	<-d2 // must be closed now

	// After release the key is free: a new leader can be elected.
	l3, _ := f.Acquire("k")
	if !l3 {
		t.Fatal("key not released")
	}
	f.Release("k")
	f.Release("k") // unheld release is a no-op
}

// TestFlightConcurrent hammers one key from many goroutines under -race:
// exactly one leader per generation, every follower eventually wakes.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight()
	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leader, done := f.Acquire("hot")
			if leader {
				mu.Lock()
				leaders++
				mu.Unlock()
				f.Release("hot")
				return
			}
			<-done
		}()
	}
	wg.Wait()
	if leaders == 0 {
		t.Fatal("no leader elected")
	}
}
