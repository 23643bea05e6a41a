package core

import (
	"polystorepp/internal/hw"
	"polystorepp/internal/metrics"
)

// Stat declares one number the runtime counts: its name (the /metrics
// family once sanitized), its /stats key ("" keeps it off /stats), its help
// text and the handle the driver bumps — a Counter, or a Gauge for a
// point-in-time number. The serving layer's stat table (internal/server/
// stats.go) renders these declarations; it spells none of them.
type Stat struct {
	Name, Key, Help string
	Counter         *metrics.Counter
	Gauge           *metrics.Gauge
}

// coreStats are the runtime's counters, created once at construction: the
// driver bumps a handle per node and per plan. decls holds each handle's
// declaration, in field order.
type coreStats struct {
	subplanHits, subplanMisses, subplanPublished, subplanBypassed *metrics.Counter
	subplanStaleSkips, subplanNodesServed, subplanBytesServed     *metrics.Counter
	subplanPlansProbed, subplanPlansReused                        *metrics.Counter

	execConcurrent, execSequential *metrics.Counter
	maxParallel                    *metrics.Gauge
	nodes, migrations, ruleNodes   *metrics.Counter

	offloads map[*hw.Device]*metrics.Counter // one per attached accelerator

	decls []Stat
}

func newCoreStats(accels []*hw.Device) coreStats {
	var decls []Stat
	c := func(key, name, help string) *metrics.Counter {
		h := new(metrics.Counter)
		decls = append(decls, Stat{Name: name, Key: key, Help: help, Counter: h})
		return h
	}
	g := func(key, name, help string) *metrics.Gauge {
		h := new(metrics.Gauge)
		decls = append(decls, Stat{Name: name, Key: key, Help: help, Gauge: h})
		return h
	}
	st := coreStats{
		subplanHits:        c("subplan_cache_hits", "core.subplan.hits", "Subtree probes served from the subplan cache."),
		subplanMisses:      c("subplan_cache_miss", "core.subplan.misses", "Subtree probes that missed."),
		subplanPublished:   c("subplan_cache_published", "core.subplan.published", "Executed subtrees memoized."),
		subplanBypassed:    c("subplan_cache_bypassed", "core.subplan.bypassed", "Executed subtrees refused by the cache because they cost more than its whole byte budget."),
		subplanStaleSkips:  c("subplan_cache_stale_skips", "core.subplan.stale_skips", "Publications dropped because a touched store moved during execution."),
		subplanNodesServed: c("subplan_nodes_served", "core.subplan.nodes_served", "Plan nodes replayed from cached subtrees instead of executing."),
		subplanBytesServed: c("subplan_bytes_served", "core.subplan.bytes_served", "Bytes of cached intermediates handed to plans."),
		subplanPlansProbed: c("subplan_plans_probed", "core.subplan.plans_probed", "Plans that probed the subplan cache."),
		subplanPlansReused: c("subplan_plans_reused", "core.subplan.plans_reused", "Plans that reused at least one cached subtree."),

		execConcurrent: c("executor_concurrent_plans", "core.exec.concurrent", "Plans run by the concurrent DAG scheduler."),
		execSequential: c("executor_sequential_plans", "core.exec.sequential", "Plans run one node at a time."),
		maxParallel:    g("executor_max_parallel", "core.exec.max_parallel", "Widest node parallelism observed inside one plan."),
		nodes:          c("", "core.nodes", "Plan nodes executed."),
		migrations:     c("", "core.migrations", "Cross-engine migrations executed."),
		ruleNodes:      c("", "core.rule_nodes", "Rule-engine nodes evaluated inside adapters."),

		offloads: make(map[*hw.Device]*metrics.Counter, len(accels)),
	}
	for _, d := range accels {
		st.offloads[d] = c("", "core.offloads."+d.Name, "Kernel calls offloaded to accelerator "+d.Name+".")
	}
	st.decls = decls
	return st
}

// Stats lists the declaration of every counter and gauge the runtime
// counts: the subplan cache's (names under "core.subplan."), then the
// executor's, then one offload counter per attached accelerator.
func (r *Runtime) Stats() []Stat { return r.st.decls }
