package relational

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeInsertGet(t *testing.T) {
	bt := newBTree()
	bt.Range(math.MinInt64, math.MaxInt64, func(k int64, _ []int32) bool {
		t.Fatalf("empty tree holds key %d", k)
		return false
	})
	for i := int64(0); i < 1000; i++ {
		bt.Insert(i*3, int32(i))
	}
	pairs := 0
	bt.Range(math.MinInt64, math.MaxInt64, func(_ int64, rows []int32) bool {
		pairs += len(rows)
		return true
	})
	if pairs != 1000 {
		t.Fatalf("%d pairs stored, want 1000", pairs)
	}
	for i := int64(0); i < 1000; i++ {
		var rows []int32
		bt.Range(i*3, i*3, func(_ int64, r []int32) bool { rows = r; return true })
		if len(rows) != 1 || rows[0] != int32(i) {
			t.Fatalf("Range(%d, %d) = %v", i*3, i*3, rows)
		}
	}
	bt.Range(1, 1, func(k int64, rows []int32) bool {
		t.Fatalf("Range(1, 1) found key %d: %v", k, rows)
		return false
	})
}

func TestBTreeDuplicates(t *testing.T) {
	bt := newBTree()
	for i := int32(0); i < 100; i++ {
		bt.Insert(7, i)
	}
	var rows []int32
	bt.Range(7, 7, func(_ int64, r []int32) bool { rows = r; return true })
	if len(rows) != 100 {
		t.Fatalf("duplicate key rows = %d", len(rows))
	}
}

func TestBTreeRandomOrderInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(5000)
	bt := newBTree()
	for _, k := range keys {
		bt.Insert(int64(k), int32(k))
	}
	for _, k := range keys {
		var rows []int32
		bt.Range(int64(k), int64(k), func(_ int64, r []int32) bool { rows = r; return true })
		if len(rows) != 1 || rows[0] != int32(k) {
			t.Fatalf("Range(%d, %d) = %v", k, k, rows)
		}
	}
	// A full range visits every key once, ascending: 0 first, 4999 last.
	next := int64(0)
	bt.Range(math.MinInt64, math.MaxInt64, func(k int64, _ []int32) bool {
		if k != next {
			t.Fatalf("full range visited %d, want %d", k, next)
		}
		next++
		return true
	})
	if next != 5000 {
		t.Fatalf("full range visited %d keys, want 5000", next)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 200; i++ {
		bt.Insert(i, int32(i))
	}
	var got []int64
	bt.Range(50, 59, func(k int64, rows []int32) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 50 || got[9] != 59 {
		t.Fatalf("Range(50,59) keys = %v", got)
	}
	// Early stop.
	count := 0
	bt.Range(0, 199, func(int64, []int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty range.
	visited := false
	bt.Range(500, 600, func(int64, []int32) bool { visited = true; return true })
	if visited {
		t.Fatal("out-of-range visit")
	}
}

// Property: B-tree range scan equals a linear filter over the inserted keys,
// in sorted order, for arbitrary insertion orders with duplicates.
func TestPropertyBTreeRangeMatchesLinear(t *testing.T) {
	f := func(seed int64, n uint8, loRaw, spanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%300 + 1
		keys := make([]int64, count)
		bt := newBTree()
		for i := range keys {
			keys[i] = int64(rng.Intn(100)) // force duplicates
			bt.Insert(keys[i], int32(i))
		}
		lo := int64(loRaw) % 100
		hi := lo + int64(spanRaw)%40
		var got []int64
		bt.Range(lo, hi, func(k int64, rows []int32) bool {
			for range rows {
				got = append(got, k)
			}
			return true
		})
		var want []int64
		for _, k := range keys {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every inserted (key,row) pair is retrievable.
func TestPropertyBTreeGetAll(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%2000 + 1
		bt := newBTree()
		inserted := make(map[int64][]int32)
		for i := 0; i < count; i++ {
			k := int64(rng.Intn(500))
			bt.Insert(k, int32(i))
			inserted[k] = append(inserted[k], int32(i))
		}
		pairs := 0
		bt.Range(math.MinInt64, math.MaxInt64, func(_ int64, rows []int32) bool {
			pairs += len(rows)
			return true
		})
		for k, want := range inserted {
			var got []int32
			bt.Range(k, k, func(_ int64, r []int32) bool { got = r; return true })
			if len(got) != len(want) {
				return false
			}
		}
		return pairs == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
