package core

import (
	"context"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
)

// ResultSink receives a plan's primary sink output as soon as the sink node
// has run, while the rest of the plan may still be executing — the
// partial-result delivery path the serving layer's NDJSON responses ride on.
// StartStream is called exactly once, with the sink node and its output
// schema (even when the result is empty, so consumers always learn the
// schema); EmitBatch then delivers the node's whole result in one call when
// it has rows. The batch is the sink value in the Results that ExecuteStream
// returns — streaming changes delivery, never content — and one batch in is
// what lets a sink cut records the same way whether the result was computed
// live, served from the subplan cache or replayed from a cache above core.
// Batches may be zero-copy views of engine storage: sinks must not retain or
// mutate them past the call.
//
// Sink methods are invoked from a single goroutine (the one executing the
// sink node), but not necessarily the caller's. A sink error aborts the
// execution with that error.
type ResultSink interface {
	StartStream(node ir.NodeID, schema cast.Schema) error
	EmitBatch(node ir.NodeID, b *cast.Batch) error
}

// ExecuteStream runs the plan, handing the first sink node's output to sink
// the moment that node has run. Model-valued sinks stream nothing (there is
// no batch to deliver). The returned Results and Report do not depend on
// sink, so callers cache and report streamed executions exactly like
// buffered ones; a nil sink is the buffered delivery.
func (r *Runtime) ExecuteStream(ctx context.Context, plan *compiler.Plan, sink ResultSink) (*Results, *Report, error) {
	var st *nodeStream
	if sink != nil {
		if len(plan.Sinks) > 0 {
			st = &nodeStream{sink: sink, node: plan.Sinks[0]}
			r.st.execStreamed.Inc()
		}
	}
	return r.execute(ctx, plan, st)
}

// nodeStream names the node whose output streams and the sink it goes to.
type nodeStream struct {
	sink ResultSink
	node ir.NodeID
}

// deliver hands node n's finished output to the sink when n is the streamed
// node (never on a nil st): its schema, then the whole batch if it has rows.
// Live executions and subplan-cache hit roots both come through here.
func (st *nodeStream) deliver(n ir.NodeID, out adapter.Value) error {
	if st == nil || st.node != n || out.Batch == nil {
		return nil
	}
	if err := st.sink.StartStream(n, out.Batch.Schema()); err != nil {
		return err
	}
	if out.Batch.Rows() == 0 {
		return nil
	}
	return st.sink.EmitBatch(n, out.Batch)
}
