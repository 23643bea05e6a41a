package core

import (
	"polystorepp/internal/compiler"
	"polystorepp/internal/feedback"
	"polystorepp/internal/ir"
	"polystorepp/internal/optimizer"
	"polystorepp/internal/partition"
)

// Adaptive feedback integration: when a feedback store is installed
// (ConfigureFeedback), every executed plan node feeds its observed facts —
// input cardinality and wall time — into the store at the driver's costing
// point (deterministic topological order, single goroutine, subplan-cache
// replays excluded so memoized hits cannot pollute wall statistics). Two
// planning decisions read the store back:
//
//   - Partition sizing (prepareFeedback): a node with a pinned fan-out is
//     capped to what the observed input cardinality justifies, carried to
//     the adapter via partition.WithMaxParts on the node's context because
//     compiled plans are cached and shared — node attrs are immutable at
//     execution time. Results are byte-identical at any fan-out, so a bad
//     cap costs speed, never correctness.
//   - Placement costing (observedHostSeconds): the LogCA device choice in
//     chargeKernel blends the static host estimate with the observed wall
//     EWMA for the (engine, op) aggregate once its sample count clears the
//     confidence threshold. Only the host-vs-accelerator *decision* uses
//     the blend; the charged cost stays the static model's, so simulated
//     Reports remain within the cost model's vocabulary.

// feedbackState hangs the store off the Runtime behind an atomic pointer
// (the subplan-cache pattern) so the serving layer can enable, reconfigure
// or disable it while requests are in flight; an execution captures the
// state once at prepare time.
type feedbackState struct {
	store *feedback.Store
}

// ConfigureFeedback installs a fresh feedback store (dropping accumulated
// statistics). Safe to call while plans execute: in-flight executions keep
// the state they captured.
func (r *Runtime) ConfigureFeedback(cfg feedback.Config) {
	r.fb.Store(&feedbackState{store: feedback.New(cfg)})
}

// DisableFeedback removes the feedback store; planning falls back to
// static cost models and pinned fan-outs run as pinned.
func (r *Runtime) DisableFeedback() { r.fb.Store(nil) }

// FeedbackStats snapshots the feedback store; enabled is false (and the
// snapshot zero) when the loop is disabled.
func (r *Runtime) FeedbackStats() (st feedback.Stats, enabled bool) {
	if fs := r.fb.Load(); fs != nil {
		return fs.store.Stats(), true
	}
	return st, false
}

// fbOverride is one node's adaptive fan-out decision: run at parts, not
// the pinned was.
type fbOverride struct{ parts, was int }

// fbExec is one execution's feedback state: the captured store, the plan's
// shape keys, and the fan-out overrides decided before any node runs. The
// override map is read-only during execution, so scheduler workers consult
// it without coordination; observation happens only on the driver
// goroutine. All methods tolerate a nil receiver — the disabled path costs
// one atomic load per plan.
type fbExec struct {
	store *feedback.Store
	fps   map[ir.NodeID]string
	over  map[ir.NodeID]fbOverride
}

// prepareFeedback captures the feedback store and decides, per node with a
// pinned fan-out, whether observed input cardinality justifies a smaller
// one. Returns nil when feedback is disabled.
func (r *Runtime) prepareFeedback(plan *compiler.Plan) *fbExec {
	fs := r.fb.Load()
	if fs == nil {
		return nil
	}
	fb := &fbExec{store: fs.store, fps: plan.NodeFPs}
	for _, n := range plan.Graph.Nodes() {
		if !n.Kind.Partitioned() {
			continue // only a kind that honors "parts" has a fan-out to cap
		}
		pinned := int(n.IntAttr("parts"))
		if pinned <= 1 {
			continue // automatic sizing already adapts to the live input
		}
		st, ok := fb.store.Confident(feedback.Key{
			Engine: opEngine(n), Op: n.Kind.String(), FP: fb.fps[n.ID],
		})
		if !ok {
			continue
		}
		advised := partition.Auto(int(st.RowsIn), partition.Shared())
		if advised >= pinned {
			continue // observation supports the pinned fan-out (or more)
		}
		if fb.over == nil {
			fb.over = make(map[ir.NodeID]fbOverride)
		}
		fb.over[n.ID] = fbOverride{parts: advised, was: pinned}
		r.st.feedbackFanoutOverrides.Inc()
	}
	if len(fb.over) > 0 {
		r.st.feedbackInfluenced.Inc()
	}
	return fb
}

// override returns the node's adaptive fan-out decision, if any.
func (fb *fbExec) override(id ir.NodeID) (fbOverride, bool) {
	if fb == nil {
		return fbOverride{}, false
	}
	o, ok := fb.over[id]
	return o, ok
}

// observe feeds one finished, costed node into the feedback store. Called
// by the driver at its costing point — topological
// order, one goroutine — and never for subplan-cache replays (cached runs
// carry memoized wall times of zero).
func (fb *fbExec) observe(n *ir.Node, run *nodeRun) {
	if fb == nil || run.cached {
		return
	}
	fb.store.Observe(feedback.Key{
		Engine: opEngine(n), Op: n.Kind.String(), FP: fb.fps[n.ID],
	}, feedback.Obs{RowsIn: run.rowsIn(), Wall: run.wall})
}

// observedHostSeconds blends a static host-cost estimate with the observed
// wall EWMA of the node's (engine, op) aggregate — the placement-costing
// half of the loop. Cold keys (or feedback off) return the static estimate
// unchanged.
func (r *Runtime) observedHostSeconds(n *ir.Node, static float64) float64 {
	fs := r.fb.Load()
	if fs == nil {
		return static
	}
	st, ok := fs.store.Confident(feedback.Key{Engine: opEngine(n), Op: n.Kind.String()})
	if !ok {
		return static
	}
	blended := optimizer.BlendedSeconds(static, st.WallSeconds,
		st.Samples, fs.store.Config().ConfidenceSamples)
	if blended != static {
		r.st.feedbackBlended.Inc()
	}
	return blended
}
