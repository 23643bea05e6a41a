package compiler

import (
	"fmt"

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

// PlanCache is a bounded LRU of compiled plans. Every plan is cached under
// its plan key (Key): the program graph's shape — its canonical fingerprint,
// which hashes each hole's type and not the constant bound to it — plus the
// compiler options. So every statement of a compiled shape skips the
// compiler, whatever its constants. A caller may cache a plan under keys of
// its own besides (Put), such as the server's SQL shape keys, which skip the
// parse that yields the plan key; one capacity bounds entries of both kinds.
// All methods are safe for concurrent use (lru.Cache is).
type PlanCache struct {
	plans *lru.Cache[*Plan]
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

// Get returns the plan cached under key, marking it most recently used. The
// plan is shared: execute a copy bound to the statement's constants.
func (c *PlanCache) Get(key string) (*Plan, bool) { return c.plans.Get(key) }

// GetBytes is Get for a key held as bytes: it allocates no string.
func (c *PlanCache) GetBytes(key []byte) (*Plan, bool) { return c.plans.GetBytes(key) }

// Put caches plan under key and returns the plan the cache holds there: the
// incumbent when key is already present — racing compiles produce
// equivalent immutable plans, and keeping one lets every hit share it —
// otherwise plan.
func (c *PlanCache) Put(key string, plan *Plan) *Plan { return c.plans.Put(key, plan) }

// Compile compiles g under opts, outside the cache's lock, and caches the
// plan under key, which is Key(g, opts) and becomes the plan's Key. It
// returns the plan the cache holds under key (Put).
func (c *PlanCache) Compile(key string, g *ir.Graph, opts Options) (*Plan, error) {
	plan, err := Compile(g, opts)
	if err != nil {
		return nil, err
	}
	plan.Key = key
	return c.Put(key, plan), nil
}

// GetOrCompileKeyed returns the plan for (g, opts) carrying g's bind vector,
// compiling and caching the shape on a miss: a copy of the cached plan. The
// second result reports whether the plan came from the cache. key is Key(g,
// opts), precomputed: a caller that fingerprints the graph for its own keys
// must not hash it twice.
func (c *PlanCache) GetOrCompileKeyed(key string, g *ir.Graph, opts Options) (*Plan, bool, error) {
	plan, hit := c.Get(key)
	if !hit {
		var err error
		if plan, err = c.Compile(key, g, opts); err != nil {
			return nil, false, err
		}
	}
	bound := *plan
	bound.Binds = g.Binds()
	return &bound, hit, nil
}

// Len returns the number of cached entries, of every key kind.
func (c *PlanCache) Len() int { return c.plans.Len() }
