package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refLRU is the reference model of least-recently-used eviction: keys most
// recently used first, the last evicted past capacity.
type refLRU struct {
	capacity int
	keys     []string
	vals     map[string]int
}

func (r *refLRU) get(k string) (int, bool) {
	i := slices.Index(r.keys, k)
	if i < 0 {
		return 0, false
	}
	r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, k)
	return r.vals[k], true
}

func (r *refLRU) put(k string, v int) int {
	if got, ok := r.get(k); ok {
		return got
	}
	if len(r.keys) == r.capacity {
		delete(r.vals, r.keys[len(r.keys)-1])
		r.keys = r.keys[:len(r.keys)-1]
	}
	r.keys, r.vals[k] = slices.Insert(r.keys, 0, k), v
	return v
}

// values lists the model's values most recently used first.
func (r *refLRU) values() []int {
	out := make([]int, len(r.keys))
	for i, k := range r.keys {
		out[i] = r.vals[k]
	}
	return out
}

// TestEqualCostsAreLRU: with every entry costing the same, GreedyDual-Size
// is least-recently-used. Seeded random Get/Put sequences over a key space
// a few times the capacity must give the reference model's Get answers and
// Put results, and Values must list the same survivors in the same order,
// for Cache (bounded by entry count) and for an unowned CostCache of equal
// costs bounded by cost.
func TestEqualCostsAreLRU(t *testing.T) {
	const capacity, cost, ops = 24, 7, 20000
	caches := map[string]func() (get func(string) (int, bool), put func(string, int) int, values func() []int){
		"Cache": func() (func(string) (int, bool), func(string, int) int, func() []int) {
			c := New[int](capacity)
			return c.Get, c.Put, c.Values
		},
		"CostCache": func() (func(string) (int, bool), func(string, int) int, func() []int) {
			c := NewCost[int](4*capacity, capacity*cost)
			put := func(k string, v int) int {
				got, ok := c.Put(k, v, cost)
				if !ok {
					t.Fatalf("put %q bypassed", k)
				}
				return got
			}
			return c.Get, put, c.Values
		},
	}
	for name, mk := range caches {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				get, put, values := mk()
				ref := &refLRU{capacity: capacity, vals: map[string]int{}}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < ops; i++ {
					k := "k" + strconv.Itoa(rng.Intn(4*capacity))
					if rng.Intn(2) == 0 {
						v, ok := get(k)
						if wv, wok := ref.get(k); v != wv || ok != wok {
							t.Fatalf("op %d: Get(%q) = (%d, %v), LRU answers (%d, %v)", i, k, v, ok, wv, wok)
						}
					} else if got, want := put(k, i), ref.put(k, i); got != want {
						t.Fatalf("op %d: Put(%q) = %d, LRU answers %d", i, k, got, want)
					}
					if i%97 == 0 || i == ops-1 {
						if got, want := values(), ref.values(); !slices.Equal(got, want) {
							t.Fatalf("op %d: Values = %v, LRU holds %v", i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestSmallAnswersSurviveLargeOneOffs is cold_analytic's shape: a cycle of
// 500 small keys (answers of 32 B to 2.3 KB plus the entry overhead, under
// 1.5 MB in all), each followed by a one-off intermediate of 200 to 900 KB
// that is never asked for again, through an 8 MiB cache. The small keys fit
// with room to spare, but a whole cycle publishes about 280 MB, so strict
// LRU has evicted each small key long before it repeats and hits none of
// them. Eviction by cost per entry keeps them: after the first cycle at
// least 90 % of the small keys' Gets must hit.
func TestSmallAnswersSurviveLargeOneOffs(t *testing.T) {
	const small, cycles = 500, 4
	rng := rand.New(rand.NewSource(7))
	smallCost := make([]int64, small)
	for i := range smallCost {
		smallCost[i] = EntryOverheadBytes + 32 + rng.Int63n(2300-32)
	}
	c := NewCost[int](16384, 8<<20)
	hits, gets, oneOff := 0, 0, 0
	for cycle := 0; cycle < cycles; cycle++ {
		for i, cost := range smallCost {
			k := "small" + strconv.Itoa(i)
			_, ok := c.Get(k)
			if !ok {
				c.Put(k, i, cost)
			}
			if cycle > 0 {
				gets++
				if ok {
					hits++
				}
			}
			oneOff++
			c.Put("large"+strconv.Itoa(oneOff), 0, 200<<10+rng.Int63n(700<<10))
		}
	}
	ratio := float64(hits) / float64(gets)
	t.Logf("small keys hit %d of %d Gets after the first cycle (%.3f); %d evictions", hits, gets, ratio, c.Stats().Evictions)
	if ratio < 0.9 {
		t.Fatalf("small keys hit %.3f of their Gets after the first cycle, want >= 0.9", ratio)
	}
}

// benchKeys returns n distinct keys.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "subplan/" + strconv.Itoa(i)
	}
	return keys
}

// subplanEntries is the subplan cache's entry bound at its default 64 MiB
// budget (one entry per 4 KiB).
const subplanEntries = 16384

// BenchmarkCostCacheGet is a hit on a full cache of subplanEntries entries
// of mixed costs. CI's kernel smoke holds it to 0 allocs/op.
func BenchmarkCostCacheGet(b *testing.B) {
	keys := benchKeys(subplanEntries)
	c := NewCost[int](subplanEntries, 0)
	for i, k := range keys {
		c.Put(k, i, int64(1+i%97))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%subplanEntries]); !ok {
			b.Fatal("miss on a full cache")
		}
	}
}

// BenchmarkCostCachePut inserts into a full cache of subplanEntries entries:
// the keys cycle over twice the bound at equal cost, so every Put is new and
// evicts one entry. CI's kernel smoke holds it to 1 allocs/op, the entry.
func BenchmarkCostCachePut(b *testing.B) {
	keys := benchKeys(2 * subplanEntries)
	c := NewCost[int](subplanEntries, 0)
	for i := 0; i < subplanEntries; i++ {
		c.Put(keys[i], i, 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[(subplanEntries+i)%len(keys)], i, 4096)
	}
	b.StopTimer()
	if ev := c.Stats().Evictions; ev != int64(b.N) {
		b.Fatalf("%d evictions over %d Puts into a full cache", ev, b.N)
	}
}
