package compiler

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"polystorepp/internal/ir"
)

func cacheTestGraph(table string) *ir.Graph {
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": table})
	g.Add(ir.OpLimit, "db", map[string]any{"n": int64(10)}, scan)
	return g
}

func getOrCompile(c *PlanCache, g *ir.Graph, opts Options) (*Plan, bool, error) {
	return c.GetOrCompileKeyed(Key(g, opts), g, opts)
}

func TestPlanCacheHitMissLRU(t *testing.T) {
	c := NewPlanCache(2)
	opts := Options{Level: 3}

	p1, hit, err := getOrCompile(c, cacheTestGraph("a"), opts)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%t err=%v", hit, err)
	}
	p2, hit, err := getOrCompile(c, cacheTestGraph("a"), opts)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%t err=%v", hit, err)
	}
	if p1.Graph != p2.Graph || &p1.Order[0] != &p2.Order[0] {
		t.Fatal("cache hit did not share the compiled plan")
	}

	// Different options miss even for the same graph.
	if _, hit, _ := getOrCompile(c, cacheTestGraph("a"), Options{Level: 0}); hit {
		t.Fatal("different options should miss")
	}

	// Capacity 2: inserting a third key evicts the LRU ("a"/L3 was touched
	// most recently via the options-miss insert... evict order check below).
	if _, hit, _ := getOrCompile(c, cacheTestGraph("b"), opts); hit {
		t.Fatal("new graph should miss")
	}
	if size := c.Len(); size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	if _, hit, _ := getOrCompile(c, cacheTestGraph("a"), opts); hit {
		t.Fatal(`"a"/L3 should have been evicted`)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8)
	opts := Options{Level: 3, Accel: true}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, hit, err := getOrCompile(c, cacheTestGraph("t"), opts)
				if err != nil {
					t.Error(err)
					return
				}
				if hit {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("expected cache hits under repeated identical queries")
	}
	if c.Len() != 1 {
		t.Fatalf("%d entries for one shape", c.Len())
	}
}

func TestFingerprintStability(t *testing.T) {
	f1 := cacheTestGraph("a").Fingerprint()
	f2 := cacheTestGraph("a").Fingerprint()
	if f1 != f2 {
		t.Fatal("identical graphs fingerprint differently")
	}
	if f1 == cacheTestGraph("b").Fingerprint() {
		t.Fatal("different graphs share a fingerprint")
	}
}

// TestPlanCacheSharedTemplateConcurrent: one template graph, compiled again
// and again by goroutines whose plan key and second key (a shape key, say)
// evict each other from a one-entry cache, while each execution binds a copy
// to its own constants. The shared plan keeps its key, its touches and no
// constants of anyone's.
func TestPlanCacheSharedTemplateConcurrent(t *testing.T) {
	c := NewPlanCache(1)
	template := cacheTestGraph("t")
	opts := Options{Level: 3, Accel: true}
	key := Key(template, opts)
	keys := []string{key, "sql|t"}
	touches := TouchesOf(template)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				plan, ok := c.Get(keys[j%2])
				if !ok {
					var err error
					if plan, err = c.Compile(key, template, opts); err != nil {
						t.Error(err)
						return
					}
					c.Put(keys[1], plan)
				}
				if plan.Key != key || plan.Binds != nil || !reflect.DeepEqual(plan.Touches, touches) {
					t.Errorf("shared plan: key %q, binds %v, touches %v", plan.Key, plan.Binds, plan.Touches)
					return
				}
				binds := []any{int64(i), int64(j)}
				bound := *plan // executions bind a copy of the shared plan
				if bound.Binds = binds; bound.Binds[0] != binds[0] || bound.Binds[1] != binds[1] || plan.Binds != nil {
					t.Errorf("plan bound to %v, want %v; shared plan's binds %v", bound.Binds, binds, plan.Binds)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("%d entries in a one-entry cache", c.Len())
	}
}
