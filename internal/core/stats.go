package core

import (
	"polystorepp/internal/hw"
	"polystorepp/internal/metrics"
)

// coreStats are the runtime's counters, resolved from the registry once at
// construction: the driver bumps a handle per node and per plan, never a
// name. The serving layer's stat table (internal/server/stats.go) declares
// the same registry names with their /stats keys and help text.
type coreStats struct {
	nodes, migrations, ruleNodes                 *metrics.Counter
	execSequential, execConcurrent, execStreamed *metrics.Counter
	maxParallel                                  *metrics.Gauge

	subplanHits, subplanMisses, subplanPublished, subplanBypassed *metrics.Counter
	subplanStaleSkips, subplanNodesServed, subplanBytesServed     *metrics.Counter
	subplanPlansProbed, subplanPlansReused, subplanFlightWaits    *metrics.Counter

	offloads map[*hw.Device]*metrics.Counter // one per attached accelerator
}

func newCoreStats(reg *metrics.Registry, accels []*hw.Device) coreStats {
	c := reg.Counter
	st := coreStats{
		nodes:          c("core.nodes"),
		migrations:     c("core.migrations"),
		ruleNodes:      c("core.rule_nodes"),
		execSequential: c("core.exec.sequential"),
		execConcurrent: c("core.exec.concurrent"),
		execStreamed:   c("core.exec.streamed"),
		maxParallel:    reg.Gauge("core.exec.max_parallel"),

		subplanHits:        c("core.subplan.hits"),
		subplanMisses:      c("core.subplan.misses"),
		subplanPublished:   c("core.subplan.published"),
		subplanBypassed:    c("core.subplan.bypassed"),
		subplanStaleSkips:  c("core.subplan.stale_skips"),
		subplanNodesServed: c("core.subplan.nodes_served"),
		subplanBytesServed: c("core.subplan.bytes_served"),
		subplanPlansProbed: c("core.subplan.plans_probed"),
		subplanPlansReused: c("core.subplan.plans_reused"),
		subplanFlightWaits: c("core.subplan.flight_waits"),

		offloads: make(map[*hw.Device]*metrics.Counter, len(accels)),
	}
	for _, d := range accels {
		st.offloads[d] = c("core.offloads." + d.Name)
	}
	return st
}
