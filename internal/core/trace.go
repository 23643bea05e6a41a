package core

import (
	"polystorepp/internal/adapter"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
)

// Trace and OpStats wiring for the plan driver, which fetches the
// request's trace from the context once per plan (obs.From), so an untraced
// execution pays one context lookup total — the nil-trace fast path the
// serving benchmark pins.

// opEngine labels a node for the per-operator aggregates and trace
// spans, and names the slots it takes in the concurrent mode: its engine, or
// "middleware" for engine-less migration nodes.
func opEngine(n *ir.Node) string {
	if n.Kind == ir.OpMigrate {
		return "middleware"
	}
	return n.Engine
}

// valueBytes approximates a dataflow value's payload size (0 for models —
// bytes track tabular volume, which is what migration and kernel costing
// already account in).
func valueBytes(v adapter.Value) int64 {
	if v.Batch == nil {
		return 0
	}
	return v.Batch.ByteSize()
}

// observeOp folds one finished node execution into the always-on
// per-(engine, op-kind) aggregates.
func (r *Runtime) observeOp(n *ir.Node, run *nodeRun) {
	r.ops.Observe(opEngine(n), n.Kind.String(), obs.Obs{
		Wall:     run.wall,
		RowsIn:   run.Info.RowsIn,
		RowsOut:  run.Info.RowsOut,
		BytesIn:  run.BytesIn,
		BytesOut: run.BytesOut,
	})
}

// nodeSpan renders one costed node execution as a trace span. Callers hold
// the costed NodeReport, so device/native labels match the execution report
// exactly.
func nodeSpan(tr *obs.Trace, n *ir.Node, run *nodeRun, nr NodeReport) obs.Span {
	s := obs.Span{
		Node:     int64(n.ID),
		Kind:     n.Kind.String(),
		Engine:   opEngine(n),
		Device:   nr.Device,
		Native:   nr.Native,
		QueueUS:  run.queue.Microseconds(),
		RunUS:    run.wall.Microseconds(),
		RowsIn:   nr.RowsIn,
		RowsOut:  nr.RowsOut,
		BytesIn:  run.BytesIn,
		BytesOut: run.BytesOut,
		Cached:   run.cached,
	}
	if !run.hostStart.IsZero() {
		s.StartUS = run.hostStart.Sub(tr.Start()).Microseconds()
	}
	if len(n.Inputs) > 0 {
		s.Inputs = make([]int64, len(n.Inputs))
		for i, in := range n.Inputs {
			s.Inputs[i] = int64(in)
		}
	}
	return s
}
