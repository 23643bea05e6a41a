package compiler

import (
	"fmt"
	"sync"

	"polystorepp/internal/ir"
	"polystorepp/internal/lru"
)

// Plan re-execution safety contract
//
// A *Plan returned by Compile is immutable: the compiler deep-clones the
// input graph, runs every mutating pass on the clone before the Plan is
// published, and the runtime never writes to plan state during Execute (node
// attributes are read-only by convention — a node whose attributes hold
// holes runs as a per-execution copy bound to Plan.Binds — device choice is
// recorded in the per-execution report, and all scheduling state lives in
// Execute-local maps). One Plan may therefore be executed by any number of
// goroutines concurrently — which is what makes caching compiled plans across requests
// sound. Anything that would mutate a Plan after Compile (a new compiler
// pass, an adapter writing node attributes) breaks this contract and must
// clone first.

// PlanCache is a bounded LRU of compiled plans keyed by the program graph's
// shape — its canonical fingerprint, which hashes each hole's type and not
// the constant bound to it — plus the compiler options. Every statement of a
// compiled shape skips the compiler, whatever its constants; hit/miss
// counters feed the /metrics endpoint. All methods are safe for concurrent
// use.
type PlanCache struct {
	mu    sync.Mutex
	plans *lru.Cache[*Plan]

	hits   int64
	misses int64
}

// NewPlanCache returns a cache bounded to capacity entries. capacity < 1 is
// treated as 1.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{plans: lru.New[*Plan](capacity)}
}

// Key computes the cache key of (graph shape, options). Exposed so callers
// can pre-compute keys when they already hold the fingerprint.
func Key(g *ir.Graph, opts Options) string {
	return fmt.Sprintf("%s|L%d|A%t|T%d", g.Fingerprint(), opts.Level, opts.Accel, int(opts.Transport))
}

// GetOrCompileKeyed returns the plan for (g, opts) carrying g's bind vector,
// compiling and caching the shape on a miss. On a hit it is a copy of the
// cached plan (Plan.WithBinds). The second result reports whether the plan
// came from the cache. key is Key(g, opts), precomputed: the serving layer
// already fingerprints the graph for its result cache and must not hash it
// twice per request.
func (c *PlanCache) GetOrCompileKeyed(key string, g *ir.Graph, opts Options) (*Plan, bool, error) {
	return c.GetOrCompileBound(key, g, g.Binds(), opts)
}

// GetOrCompileBound is GetOrCompileKeyed with the bind vector apart from the
// graph: the plan returned executes with binds, whatever g carries. A caller
// that keeps one template graph per shape compiles it on a miss and never
// rebuilds it for a statement's constants.
func (c *PlanCache) GetOrCompileBound(key string, g *ir.Graph, binds []any, opts Options) (*Plan, bool, error) {
	c.mu.Lock()
	if plan, ok := c.plans.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return plan.WithBinds(binds), true, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: compilation is the expensive part, and two
	// racing misses for the same key just produce equivalent immutable plans
	// (Put keeps the incumbent, so repeated hits share one plan).
	plan, err := Compile(g, opts)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	c.plans.Put(key, plan)
	c.mu.Unlock()
	return plan.WithBinds(binds), false, nil
}

// Stats returns (hits, misses, current length).
func (c *PlanCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.plans.Len()
}
