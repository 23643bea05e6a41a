package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
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
// Reports exclude from equivalence). Every candidate that misses executes
// and is published when its root's run is costed, guarded by a
// version-vector re-check so a write to a touched store mid-flight
// suppresses the publication. Concurrent cold executions of one subtree each
// execute it, and the first publication stands (Cache.Put keeps the
// incumbent): identical concurrent requests are merged before admission, by
// the serving layer's single-flight, not here.

// DefaultSubplanCacheBytes bounds the subplan cache when no explicit size
// is configured.
const DefaultSubplanCacheBytes int64 = 64 << 20

// WithSubplanCacheBytes sizes the runtime's subplan cache: 0 keeps the
// default (DefaultSubplanCacheBytes), negative disables the cache.
func WithSubplanCacheBytes(n int64) Option {
	return func(r *Runtime) { r.subplanBytes = n }
}

// newSubplanCache builds the subplan cache NewRuntime sizes once: n bytes,
// DefaultSubplanCacheBytes when n is 0, and none (nil) when n is negative.
func newSubplanCache(n int64) *subplan.Cache {
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = DefaultSubplanCacheBytes
	}
	return subplan.NewCache(n)
}

// SubplanCacheStats snapshots the subplan cache, per-tenant charges
// included; enabled is false (and the snapshot zero) when subplan caching
// is disabled.
func (r *Runtime) SubplanCacheStats() (st lru.Stats, enabled bool) {
	if r.subplan != nil {
		return r.subplan.Stats(), true
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
// serve from cache (hit), or execute and publish. Returns nil when the cache
// is disabled or the plan has no candidates: the driver then skips all
// per-node bookkeeping.
func (r *Runtime) prepareSubplan(ctx context.Context, plan *compiler.Plan, miss *RootMiss) *planProbe {
	if r.subplan == nil || len(plan.Subtrees) == 0 {
		return nil
	}
	tr := obs.From(ctx)
	pr := r.newProbe(tenant.From(ctx), plan.Graph.IDBound())

	// Probe outermost-first (Plan.Subtrees orders candidates by closure
	// size). Closed candidates are nested or disjoint, so a hit covers every
	// candidate inside it. Keys are built back to back on the stack, a hit's
	// dropped again, and a version vector is rendered only when the touch
	// set differs from the last one's (nested candidates mostly share one),
	// or lent by the root probe's miss: a probe allocates nothing. Every
	// miss publishes on completion — inner candidates too, for extra hit
	// surface — except a key already missed in this plan (identical sibling
	// subtrees), whose copy just executes.
	keys, vv, vvOf := make([]byte, 0, 512), make([]byte, 0, 128), map[string][]string(nil)
	misses := slices.Grow(pr.misses[:0], len(plan.Subtrees))
	recs := 0
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
		if keys = append(keys, vv...); !probed && pr.serveHit(tr, st, keys[lo:], r.subtreeEntry(st, keys[lo:])) {
			keys = keys[:lo]
			continue
		}
		r.st.subplanMisses.Inc()
		if tr != nil {
			tr.Event("cache.subplan", fmt.Sprintf("miss root=%d nodes=%d key=%x", st.Root, len(st.Closure), string(keys[lo:lo+8])))
		}
		dup := slices.ContainsFunc(misses, func(o pendingPub) bool { return bytes.Equal(keys[o.lo:o.hi], keys[lo:]) })
		misses = append(misses, pendingPub{sub: st, lo: lo, vv: at, hi: len(keys)})
		if !dup {
			recs += len(st.Closure)
			pr.nodes[st.Root].pub = &misses[len(misses)-1]
		}
	}
	pr.keys, pr.misses = string(keys), misses
	pr.costs = make([]*subplan.NodeCost, recs)

	r.st.subplanPlansProbed.Inc()
	if pr.hits > 0 {
		r.st.subplanPlansReused.Inc()
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
	pr.serveHit(obs.From(ctx), st, key, e)
	r.st.subplanPlansProbed.Inc()
	r.st.subplanPlansReused.Inc()
	res, rep, err := r.drive(ctx, t0, plan, pr)
	return res, rep, err == nil
}

// subtreeEntry returns the entry the cache holds for st under key when it is
// well formed — its records match st's closure — and nil otherwise.
func (r *Runtime) subtreeEntry(st *compiler.Subtree, key []byte) *subplan.Entry {
	e, ok := r.subplan.GetBytes(key)
	if !ok || len(e.Costs) != len(st.Closure) {
		return nil
	}
	return e
}

// serveHit marks st served from e, the entry under key, unless e is nil:
// every closure node is costed from the entry's record, the root yields the
// memoized value, and inner candidates are skipped since their roots are
// served.
func (pr *planProbe) serveHit(tr *obs.Trace, st *compiler.Subtree, key []byte, e *subplan.Entry) bool {
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
		tr.Event("cache.subplan", fmt.Sprintf("hit root=%d nodes=%d bytes=%d key=%x", st.Root, len(st.Closure), e.Bytes, string(key[:8])))
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
	// A concurrent cold execution of the same subtree may have stored this
	// key first: its entry stays, and this one counts as neither published
	// nor bypassed. An output over the whole budget is bypassed.
	switch got, ok := pr.rt.subplan.Put(pr.key(pub), e, pr.tenant); {
	case !ok:
		pr.rt.st.subplanBypassed.Inc()
	case got == e:
		pr.rt.st.subplanPublished.Inc()
	}
}

// close hands the probe back to the pool cleared. Runs on every exit path,
// once nothing reads the probe any more.
func (pr *planProbe) close() {
	if pr == nil {
		return
	}
	clear(pr.nodes)
	clear(pr.misses)
	clear(pr.led)
	*pr = planProbe{nodes: pr.nodes[:0], misses: pr.misses[:0], finish: pr.finish[:0], led: pr.led[:0]}
	if cap(pr.nodes) <= maxPooledNodes && cap(pr.finish) <= maxPooledNodes {
		probes.Put(pr)
	}
}
