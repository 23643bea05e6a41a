package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
	"polystorepp/internal/lru"
	"polystorepp/internal/obs"
	"polystorepp/internal/subplan"
	"polystorepp/internal/tenant"
)

// Subplan cache integration: before a plan executes, the runtime probes the
// content-addressed subplan cache for each of the plan's cacheable subtrees
// (compiler.Plan.Subtrees). A hit marks the whole subtree served: no node in
// its closure runs or is dispatched, the root yields the memoized batch, and
// the driver still costs each node from the entry's record in topological
// order over the shared reservation ledger — so warm Reports are
// byte-identical to cold ones (modulo host wall times, like everything else
// Reports exclude from equivalence). Misses elect a
// per-key single-flight leader so concurrent plans sharing a hot subtree
// execute it once; everyone who executes a candidate publishes it when the
// root's run is costed, guarded by a version-vector re-check so a write to
// a touched store mid-flight suppresses the publication.

// DefaultSubplanCacheBytes bounds the subplan cache when no explicit size
// is configured.
const DefaultSubplanCacheBytes int64 = 64 << 20

// subplanState bundles the cache with its single-flight coordinator.
type subplanState struct {
	cache  *subplan.Cache
	flight *subplan.Flight
}

// WithSubplanCacheBytes sizes the runtime's subplan cache: 0 keeps the
// default (DefaultSubplanCacheBytes), negative disables the cache.
func WithSubplanCacheBytes(n int64) Option {
	return func(r *Runtime) { r.subplanBytes = n }
}

// newSubplanState builds the subplan cache NewRuntime sizes once: n bytes,
// DefaultSubplanCacheBytes when n is 0, and none (nil) when n is negative.
func newSubplanState(n int64) *subplanState {
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = DefaultSubplanCacheBytes
	}
	return &subplanState{cache: subplan.NewCache(n), flight: subplan.NewFlight()}
}

// SubplanCacheStats snapshots the subplan cache, per-tenant charges
// included; enabled is false (and the snapshot zero) when subplan caching
// is disabled.
func (r *Runtime) SubplanCacheStats() (st lru.Stats, enabled bool) {
	if r.subplan != nil {
		return r.subplan.cache.Stats(), true
	}
	return st, false
}

// pendingPub is one subtree this execution will publish when its root's
// run has been costed. Its key is the probe's keys[lo:hi], ending in the
// version vector keys[vv:hi] that publish re-checks.
type pendingPub struct {
	sub        *compiler.Subtree
	lo, vv, hi int
}

// planProbe is one execution's subplan-cache decision state. It is built
// before any node runs (prepareSubplan), its serve decisions read-only from
// then on, and fed finished runs by the driver for publication. All methods
// tolerate a nil receiver so the disabled path stays free.
// Probes are pooled (probes) and cleared by close; what a published entry
// keeps — keys, costs, the driver's recs — is made per execution.
type planProbe struct {
	rt *Runtime
	// tenant is who this execution runs for, captured at prepare time; the
	// cache charges published entries to it.
	tenant string
	// nodes is indexed by node id.
	nodes []probeNode
	hits  int // candidates a cache hit serves
	// keys holds the missed candidates' keys back to back; costs is the
	// slab publications take their Entry.Costs from, in publication order.
	keys  string
	costs []*subplan.NodeCost
	// leases are the single-flight keys this execution leads; released on
	// every exit path (close), after any publications.
	leases []string
	// misses are the candidates the cache missed, in probe order; a node's
	// pub points into it. finish and led are the driver's clock (clock).
	misses []pendingPub
	finish []float64
	led    ledger
}

var probes = sync.Pool{New: func() any { return new(planProbe) }}

// maxPooledNodes bounds the node table a pooled probe keeps: a rare huge
// plan's goes with its probe.
const maxPooledNodes = 1 << 10

// newProbe takes a cleared probe from the pool with a node table of n
// entries.
func (r *Runtime) newProbe(tenant string, n int) *planProbe {
	pr := probes.Get().(*planProbe)
	pr.rt, pr.tenant = r, tenant
	if cap(pr.nodes) < n {
		pr.nodes = make([]probeNode, n)
	}
	pr.nodes = pr.nodes[:n]
	return pr
}

// clock returns the driver's simulated clock: pr's n node finish times,
// zeroed, and its device ledger, empty; without a probe, fresh ones and own.
func (pr *planProbe) clock(n int, own *ledger) ([]float64, *ledger) {
	if pr == nil {
		return make([]float64, n), own
	}
	pr.finish, pr.led = slices.Grow(pr.finish[:0], n)[:n], pr.led[:0]
	clear(pr.finish)
	return pr.finish, &pr.led
}

// probeNode is what one execution's probe knows of one node.
type probeNode struct {
	// serve is the entry's record of a node a cache hit covers (nil when it
	// runs); out is a hit root's memoized batch. Interior served nodes yield
	// an empty value — closedness guarantees nothing outside the closure
	// reads them.
	serve *subplan.NodeCost
	out   adapter.Value
	// rec is the node's record once the driver has costed it; pub is the
	// publication rooted at the node, if any.
	rec *subplan.NodeCost
	pub *pendingPub
}

// key returns pub's cache key.
func (pr *planProbe) key(pub *pendingPub) string { return pr.keys[pub.lo:pub.hi] }

// appendKey appends a memoized intermediate's content address: shape
// fingerprint, the constants bound to its holes, and vv, whose start it returns.
func appendKey(dst []byte, st *compiler.Subtree, binds []any, vv string) ([]byte, int) {
	dst = append(append(dst, st.Fingerprint...), '|')
	for _, s := range st.Slots {
		dst = ir.AppendBind(dst, binds[s])
	}
	dst = append(dst, '|')
	return append(dst, vv...), len(dst)
}

// sameTables compares Touches.ByEngine values: nil (whole engine) ≠ empty.
func sameTables(a, b []string) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// serves reports whether a subplan hit serves node id.
func (pr *planProbe) serves(id ir.NodeID) bool {
	return pr != nil && pr.nodes[id].serve != nil
}

// prepareSubplan probes the subplan cache for the plan's candidate subtrees
// (the outermost not when miss holds its key) and decides, per candidate:
// serve from cache (hit), wait for a concurrent leader producing the same key
// (single-flight), or execute and publish. Returns nil when the cache is
// disabled or the plan has no candidates: the driver then skips all per-node
// bookkeeping.
func (r *Runtime) prepareSubplan(ctx context.Context, plan *compiler.Plan, miss *RootMiss) *planProbe {
	if r.subplan == nil || len(plan.Subtrees) == 0 {
		return nil
	}
	tr := obs.From(ctx)
	pr := r.newProbe(tenant.From(ctx), plan.Graph.IDBound())

	// Phase 1: probe outermost-first (Plan.Subtrees orders candidates by
	// closure size). Closed candidates are nested or disjoint, so a hit
	// covers every candidate inside it. Keys are built back to back on the
	// stack, a hit's dropped again, and a version vector is rendered only
	// when the touch set differs from the last one's (nested candidates
	// mostly share one), or lent by the root probe's miss: a probe allocates
	// nothing.
	keys, vv, vvOf := make([]byte, 0, 512), make([]byte, 0, 128), map[string][]string(nil)
	misses := slices.Grow(pr.misses[:0], len(plan.Subtrees))
	for i := range plan.Subtrees {
		st := &plan.Subtrees[i]
		if pr.serves(st.Root) {
			continue
		}
		lo, at := len(keys), 0
		keys, at = appendKey(keys, st, plan.Binds, "")
		// The root probe missed this key if miss holds its fingerprint and constants.
		probed := i == 0 && miss != nil && miss.vv == at-lo && bytes.Equal(miss.key[:miss.vv], keys[lo:at])
		switch {
		case probed:
			vv, vvOf = append(vv[:0], miss.key[miss.vv:]...), st.Touches.ByEngine
		case vvOf == nil || !maps.EqualFunc(vvOf, st.Touches.ByEngine, sameTables):
			vv, vvOf = r.appendVersionVector(vv[:0], st.Touches), st.Touches.ByEngine
		}
		if keys = append(keys, vv...); !probed && pr.serveHit(tr, "hit", st, keys[lo:], r.subtreeEntry(st, keys[lo:])) {
			keys = keys[:lo]
			continue
		}
		r.st.subplanMisses.Inc()
		if tr != nil {
			tr.Event("cache.subplan", fmt.Sprintf("miss root=%d nodes=%d key=%x", st.Root, len(st.Closure), string(keys[lo:lo+8])))
		}
		misses = append(misses, pendingPub{sub: st, lo: lo, vv: at, hi: len(keys)})
	}
	pr.keys, pr.misses = string(keys), misses

	// Phase 2: single-flight the maximal misses (the pairwise-disjoint
	// outermost ones: containment is root membership, as closed subtrees
	// are nested or disjoint), in sorted-key order. Every concurrent
	// execution acquires and waits in the same global key order, so
	// hold-and-wait cycles between plans leading each other's subtrees
	// cannot form.
	maximal := make([]*pendingPub, 0, 8)
	for i := range misses {
		m := &misses[i]
		if !slices.ContainsFunc(misses, func(o pendingPub) bool {
			return o.sub.Root != m.sub.Root && slices.Contains(o.sub.Closure, m.sub.Root)
		}) {
			maximal = append(maximal, m)
		}
	}
	slices.SortFunc(maximal, func(a, b *pendingPub) int { return strings.Compare(pr.key(a), pr.key(b)) })
	for _, m := range maximal {
		key := pr.key(m)
		if pr.serves(m.sub.Root) || slices.Contains(pr.leases, key) {
			continue
		}
		const attempts = 3
		for i := 0; i < attempts; i++ {
			leader, done := r.subplan.flight.Acquire(key)
			if leader {
				pr.leases = append(pr.leases, key)
				break
			}
			r.st.subplanFlightWaits.Inc()
			select {
			case <-done:
			case <-ctx.Done():
				i = attempts // deadline: run the subtree ourselves
				continue
			}
			if pr.serveHit(tr, "flight-hit", m.sub, keys[m.lo:m.hi], r.subtreeEntry(m.sub, keys[m.lo:m.hi])) {
				break
			}
			// Leader released without publishing (error, oversized entry,
			// eviction): contend for the lease again.
		}
	}

	// Phase 3: every candidate that still executes publishes on completion
	// — inner candidates too, for extra hit surface. Duplicate keys inside
	// one plan (identical sibling subtrees) publish once; the second copy
	// just executes.
	pubs, recs := 0, 0
	for i := range misses {
		m := &misses[i]
		if pr.serves(m.sub.Root) || slices.ContainsFunc(misses[:i], func(o pendingPub) bool {
			return pr.key(&o) == pr.key(m) && pr.nodes[o.sub.Root].pub != nil
		}) {
			continue
		}
		pubs++
		recs += len(m.sub.Closure)
		pr.nodes[m.sub.Root].pub = m
	}
	pr.costs = make([]*subplan.NodeCost, recs)

	r.st.subplanPlansProbed.Inc()
	if pr.hits > 0 {
		r.st.subplanPlansReused.Inc()
	}
	if pr.hits == 0 && pubs == 0 && len(pr.leases) == 0 {
		pr.close()
		return nil
	}
	return pr
}

// RootMiss is the key a root probe missed (ProbeRoot), ending in the version
// vector it read. Each probe reuses its buffer.
type RootMiss struct {
	key []byte
	vv  int // where key's version vector starts; 0 when key holds none
}

// ProbeRoot answers plan from the subplan cache before any work is
// admitted. It applies when the plan's outermost candidate covers every node
// (so its root is the one sink) and the cache holds that candidate under the
// key prepareSubplan builds for it at vv, the caller's rendering of the
// version vector of the plan's touches (VersionVector). A hit
// returns what Execute returns for a plan served whole: the same driver
// costs every node from the entry's records, and Wall is the probe's own
// time. A miss (ok false) counts nothing and leaves its key in miss (none
// when the probe does not apply) for ExecuteAfterMiss.
func (r *Runtime) ProbeRoot(ctx context.Context, plan *compiler.Plan, vv string, miss *RootMiss) (res *Results, rep *Report, ok bool) {
	t0 := time.Now()
	if miss.key, miss.vv = miss.key[:0], 0; cap(miss.key) > 16<<10 {
		miss.key = nil // a long key's buffer is not kept for the next probe
	}
	if r.subplan == nil || len(plan.Subtrees) == 0 || len(plan.Subtrees[0].Closure) != len(plan.Order) || len(plan.Binds) < plan.Slots {
		return nil, nil, false
	}
	st := &plan.Subtrees[0]
	key, at := appendKey(miss.key, st, plan.Binds, vv)
	e := r.subtreeEntry(st, key)
	if miss.key = key; e == nil {
		miss.vv = at
		return nil, nil, false
	}
	pr := r.newProbe("", plan.Graph.IDBound())
	defer pr.close()
	pr.serveHit(obs.From(ctx), "hit", st, key, e)
	r.st.subplanPlansProbed.Inc()
	r.st.subplanPlansReused.Inc()
	res, rep, err := r.drive(ctx, t0, plan, pr)
	return res, rep, err == nil
}

// subtreeEntry returns the entry the cache holds for st under key when it is
// well formed — its records match st's closure — and nil otherwise.
func (r *Runtime) subtreeEntry(st *compiler.Subtree, key []byte) *subplan.Entry {
	e, ok := r.subplan.cache.GetBytes(key)
	if !ok || len(e.Costs) != len(st.Closure) {
		return nil
	}
	return e
}

// serveHit marks st served from e, the entry under key, unless e is nil:
// every closure node is costed from the entry's record, the root yields the
// memoized value, and inner candidates are skipped since their roots are
// served.
func (pr *planProbe) serveHit(tr *obs.Trace, what string, st *compiler.Subtree, key []byte, e *subplan.Entry) bool {
	if e == nil {
		return false
	}
	for i, id := range st.Closure {
		pr.nodes[id].serve = e.Costs[i]
	}
	pr.nodes[st.Root].out = e.Reused()
	pr.hits++
	pr.rt.st.subplanHits.Inc()
	pr.rt.st.subplanNodesServed.Add(int64(len(st.Closure)))
	pr.rt.st.subplanBytesServed.Add(e.Bytes)
	if tr != nil {
		tr.Event("cache.subplan", fmt.Sprintf("%s root=%d nodes=%d bytes=%d key=%x", what, st.Root, len(st.Closure), e.Bytes, string(key[:8])))
	}
	return true
}

// onNodeCosted feeds the driver's finished runs to the pending
// publications. Called in topological order from a single goroutine, so
// when a pub's root arrives every closure record has been kept. It keeps
// the run's record, never the run.
func (pr *planProbe) onNodeCosted(id ir.NodeID, run *nodeRun) {
	if pr == nil {
		return
	}
	pn := &pr.nodes[id]
	pn.rec = run.NodeCost
	if pn.pub != nil {
		pr.publish(pn.pub, run.out)
	}
}

// publish memoizes one executed subtree: per-node records plus the root's
// output itself, a batch or a model (charged its float64 parameters). A
// batch that has left its producer is immutable (package cast), and so is a
// returned model (train starts from a copy of its initial weights), so the
// entry, this request's downstream nodes and every later replay share it;
// nothing is cloned, and a selection-backed output is not gathered until a
// hit asks for it (subplan.Entry.Reused). Nor are the records: the entry
// points at this execution's (or an inner hit's). The version vector is
// re-checked against its prepare-time value so a write to a touched store
// while the subtree executed suppresses the publication — the output belongs
// to neither the old version nor reliably the new one.
func (pr *planProbe) publish(pub *pendingPub, out adapter.Value) {
	n := len(pub.sub.Closure)
	costs := pr.costs[:n:n]
	pr.costs = pr.costs[n:]
	if string(pr.rt.appendVersionVector(make([]byte, 0, 128), pub.sub.Touches)) != pr.keys[pub.vv:pub.hi] {
		pr.rt.st.subplanStaleSkips.Inc()
		return
	}
	for i, id := range pub.sub.Closure {
		costs[i] = pr.nodes[id].rec
	}
	e := &subplan.Entry{Output: out, Costs: costs, Bytes: valueBytes(out)}
	if out.Model != nil {
		e.Bytes = 8 * int64(out.Model.Params())
	}
	// Inner candidates are not single-flighted, so a concurrent execution
	// may have stored this key first: its entry stays, and this one counts
	// as neither published nor bypassed.
	switch got, ok := pr.rt.subplan.cache.Put(pr.key(pub), e, pr.tenant); {
	case !ok:
		pr.rt.st.subplanBypassed.Inc()
	case got == e:
		pr.rt.st.subplanPublished.Inc()
	}
}

// close releases every single-flight lease this execution holds — followers
// then re-probe: a hit if we published, a fresh leader election if we
// failed — and hands the probe back to the pool cleared. Runs on every exit
// path, once nothing reads the probe any more.
func (pr *planProbe) close() {
	if pr == nil {
		return
	}
	for _, k := range pr.leases {
		pr.rt.subplan.flight.Release(k)
	}
	clear(pr.nodes)
	clear(pr.misses)
	clear(pr.leases)
	clear(pr.led)
	*pr = planProbe{nodes: pr.nodes[:0], misses: pr.misses[:0], leases: pr.leases[:0], finish: pr.finish[:0], led: pr.led[:0]}
	if cap(pr.nodes) <= maxPooledNodes && cap(pr.finish) <= maxPooledNodes {
		probes.Put(pr)
	}
}
