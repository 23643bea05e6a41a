package core

import (
	"context"
	"fmt"
	"sort"

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
// (compiler.Plan.Subtrees). A hit marks the whole subtree served: every
// node in its closure skips real execution inside runNode, the root yields
// the memoized batch, and the driver still costs each node from the
// entry's replay data in topological order over the shared reservation
// ledger — so warm Reports are byte-identical to cold ones (modulo host
// wall times, like everything else Reports exclude from equivalence). Misses elect a
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
// run has been costed.
type pendingPub struct {
	sub compiler.Subtree
	key string
	vv  string
}

// planProbe is one execution's subplan-cache decision state. It is built
// before any node runs (prepareSubplan), consulted from runNode in both
// dispatch modes (read-only maps, safe under worker concurrency), and fed
// finished runs by the driver (single goroutine) for publication.
// All methods tolerate a nil receiver so the disabled path stays free.
type planProbe struct {
	rt *Runtime
	// tenant is who this execution runs for, captured at prepare time; the
	// cache charges published entries to it.
	tenant string
	// serve maps every node covered by a cache hit to its replay cost;
	// hit roots additionally appear in out with the memoized batch.
	// Interior served nodes yield an empty value — closedness guarantees
	// nothing outside the closure reads them.
	serve map[ir.NodeID]*subplan.NodeCost
	out   map[ir.NodeID]adapter.Value
	// capture marks nodes whose finished runs must be retained for a
	// pending publication; runs collects them as the driver costs
	// nodes in topological order.
	capture map[ir.NodeID]bool
	runs    map[ir.NodeID]*nodeRun
	pubs    map[ir.NodeID]pendingPub
	// leases are the single-flight keys this execution leads; released on
	// every exit path (close), after any publications.
	leases []string
}

// subplanKey is the full content address of a memoized intermediate: the
// subtree's shape fingerprint, the constants this execution binds to the
// subtree's holes, and the version vector of the stores it touches.
func subplanKey(st compiler.Subtree, binds []any, vv string) string {
	var buf [192]byte
	b := append(buf[:0], st.Fingerprint...)
	b = append(b, '|')
	for _, s := range st.Slots {
		b = ir.AppendBind(b, binds[s])
	}
	b = append(b, '|')
	return string(append(b, vv...))
}

// serves reports whether a subplan hit serves node id.
func (pr *planProbe) serves(id ir.NodeID) bool {
	return pr != nil && pr.serve[id] != nil
}

// shortKey abbreviates a cache key for trace events.
func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

// prepareSubplan probes the subplan cache for the plan's candidate
// subtrees and decides, per candidate: serve from cache (hit), wait for a
// concurrent leader producing the same key (single-flight), or execute and
// publish. Returns nil when the cache is disabled or the plan has no
// candidates — the driver then skips all per-node bookkeeping.
func (r *Runtime) prepareSubplan(ctx context.Context, plan *compiler.Plan) *planProbe {
	if r.subplan == nil || len(plan.Subtrees) == 0 {
		return nil
	}
	tr := obs.From(ctx)
	pr := &planProbe{
		rt:      r,
		tenant:  tenant.From(ctx),
		serve:   make(map[ir.NodeID]*subplan.NodeCost),
		out:     make(map[ir.NodeID]adapter.Value),
		capture: make(map[ir.NodeID]bool),
		runs:    make(map[ir.NodeID]*nodeRun),
		pubs:    make(map[ir.NodeID]pendingPub),
	}
	covered := make(map[ir.NodeID]bool)

	// Phase 1: probe outermost-first (Plan.Subtrees orders candidates by
	// closure size). Closed candidates are nested or disjoint, so a hit
	// covers every candidate inside it.
	var misses []pendingPub
	for _, st := range plan.Subtrees {
		if covered[st.Root] {
			continue
		}
		vv := r.VersionVector(st.Touches)
		key := subplanKey(st, plan.Binds, vv)
		if e := pr.lookup(key, len(st.Closure)); e != nil {
			pr.admitHit(st, e, covered)
			if tr != nil {
				tr.Event("cache.subplan", fmt.Sprintf("hit root=%d nodes=%d bytes=%d key=%s",
					st.Root, len(st.Closure), e.Bytes, shortKey(key)))
			}
			continue
		}
		r.st.subplanMisses.Inc()
		if tr != nil {
			tr.Event("cache.subplan", fmt.Sprintf("miss root=%d nodes=%d key=%s",
				st.Root, len(st.Closure), shortKey(key)))
		}
		misses = append(misses, pendingPub{sub: st, key: key, vv: vv})
	}

	// Phase 2: single-flight the maximal misses (the pairwise-disjoint
	// outermost ones), in sorted-key order. Every concurrent execution
	// acquires and waits in the same global key order, so hold-and-wait
	// cycles between plans leading each other's subtrees cannot form.
	maximal := maximalMisses(misses)
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].key < maximal[j].key })
	leased := make(map[string]bool)
	for _, m := range maximal {
		if covered[m.sub.Root] || leased[m.key] {
			continue
		}
		const attempts = 3
		for i := 0; i < attempts; i++ {
			leader, done := r.subplan.flight.Acquire(m.key)
			if leader {
				pr.leases = append(pr.leases, m.key)
				leased[m.key] = true
				break
			}
			r.st.subplanFlightWaits.Inc()
			select {
			case <-done:
			case <-ctx.Done():
				i = attempts // deadline: run the subtree ourselves
				continue
			}
			if e := pr.lookup(m.key, len(m.sub.Closure)); e != nil {
				pr.admitHit(m.sub, e, covered)
				if tr != nil {
					tr.Event("cache.subplan", fmt.Sprintf("flight-hit root=%d nodes=%d bytes=%d key=%s",
						m.sub.Root, len(m.sub.Closure), e.Bytes, shortKey(m.key)))
				}
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
	pubKeys := make(map[string]bool, len(misses))
	for _, m := range misses {
		if covered[m.sub.Root] || pubKeys[m.key] {
			continue
		}
		pubKeys[m.key] = true
		pr.pubs[m.sub.Root] = m
		for _, id := range m.sub.Closure {
			pr.capture[id] = true
		}
	}

	r.st.subplanPlansProbed.Inc()
	if len(pr.out) > 0 {
		r.st.subplanPlansReused.Inc()
	}
	if len(pr.serve) == 0 && len(pr.pubs) == 0 && len(pr.leases) == 0 {
		return nil
	}
	return pr
}

// maximalMisses filters the missed candidates down to those not contained
// in another miss — the units single-flight coordinates on. Containment is
// root membership: closed subtrees are nested or disjoint.
func maximalMisses(misses []pendingPub) []pendingPub {
	if len(misses) <= 1 {
		return misses
	}
	inner := make(map[ir.NodeID]bool)
	for _, m := range misses {
		for _, id := range m.sub.Closure {
			if id != m.sub.Root {
				inner[id] = true
			}
		}
	}
	out := make([]pendingPub, 0, len(misses))
	for _, m := range misses {
		if !inner[m.sub.Root] {
			out = append(out, m)
		}
	}
	return out
}

// lookup probes the cache, counting a hit only for well-formed entries
// whose replay data matches the candidate's closure size.
func (pr *planProbe) lookup(key string, closureLen int) *subplan.Entry {
	e, ok := pr.rt.subplan.cache.Get(key)
	if !ok || e.Output == nil || len(e.Costs) != closureLen {
		return nil
	}
	pr.rt.st.subplanHits.Inc()
	return e
}

// admitHit marks a subtree served: every closure node replays from the
// entry, the root yields the memoized batch, and the covered set grows so
// inner candidates are skipped.
func (pr *planProbe) admitHit(st compiler.Subtree, e *subplan.Entry, covered map[ir.NodeID]bool) {
	for i, id := range st.Closure {
		covered[id] = true
		pr.serve[id] = &e.Costs[i]
	}
	pr.out[st.Root] = adapter.Value{Batch: e.Reused()}
	pr.rt.st.subplanNodesServed.Add(int64(len(st.Closure)))
	pr.rt.st.subplanBytesServed.Add(e.Bytes)
}

// serveNode returns a synthesized run for a node covered by a cache hit
// (nil otherwise). The run carries the entry's replay data, so costing and
// operator stats see exactly what the cold execution recorded; hit roots
// carry the memoized batch.
func (pr *planProbe) serveNode(n *ir.Node) *nodeRun {
	if pr == nil {
		return nil
	}
	cost, ok := pr.serve[n.ID]
	if !ok {
		return nil
	}
	run := &nodeRun{
		info:      cost.Info,
		bd:        cost.BD,
		isMigrate: cost.IsMigrate,
		rows:      cost.Rows,
		bytesIn:   cost.BytesIn,
		bytesOut:  cost.BytesOut,
		cached:    true,
	}
	run.out = pr.out[n.ID]
	return run
}

// onNodeCosted feeds the driver's finished runs to the pending
// publications. Called in topological order from a single goroutine, so
// when a pub's root arrives every closure run has been captured.
func (pr *planProbe) onNodeCosted(id ir.NodeID, run *nodeRun) {
	if pr == nil || !pr.capture[id] {
		return
	}
	pr.runs[id] = run
	if pub, ok := pr.pubs[id]; ok {
		pr.publish(pub)
	}
}

// publish memoizes one executed subtree: per-node replay data plus the root's
// output batch itself. A batch that has left its producer is immutable
// (package cast), so the entry, this request's downstream nodes and every
// later replay share it; nothing is cloned, and a selection-backed output is
// not gathered until a hit asks for it (subplan.Entry.Reused). The version vector
// is re-checked against its prepare-time value so a write to a touched
// store while the subtree executed suppresses the publication — the batch
// belongs to neither the old version nor reliably the new one.
func (pr *planProbe) publish(pub pendingPub) {
	if pr.rt.VersionVector(pub.sub.Touches) != pub.vv {
		pr.rt.st.subplanStaleSkips.Inc()
		return
	}
	costs := make([]subplan.NodeCost, len(pub.sub.Closure))
	var root *nodeRun
	for i, id := range pub.sub.Closure {
		run := pr.runs[id]
		if run == nil || run.err != nil {
			return
		}
		costs[i] = subplan.NodeCost{
			Info:      run.info,
			IsMigrate: run.isMigrate,
			BD:        run.bd,
			Rows:      run.rows,
			BytesIn:   run.bytesIn,
			BytesOut:  run.bytesOut,
		}
		if id == pub.sub.Root {
			root = run
		}
	}
	if root == nil || root.out.Batch == nil {
		return // non-tabular root: nothing to memoize
	}
	e := &subplan.Entry{
		Output: root.out.Batch,
		Costs:  costs,
		Bytes:  root.out.Batch.ByteSize(),
	}
	// Inner candidates are not single-flighted, so a concurrent execution
	// may have stored this key first: its entry stays, and this one counts
	// as neither published nor bypassed.
	switch got, ok := pr.rt.subplan.cache.Put(pub.key, e, pr.tenant); {
	case !ok:
		pr.rt.st.subplanBypassed.Inc()
	case got == e:
		pr.rt.st.subplanPublished.Inc()
	}
}

// close releases every single-flight lease this execution holds. Runs on
// every exit path; followers then re-probe — a hit if we published, a
// fresh leader election if we failed.
func (pr *planProbe) close() {
	if pr == nil {
		return
	}
	for _, k := range pr.leases {
		pr.rt.subplan.flight.Release(k)
	}
	pr.leases = nil
}
