package core

import (
	"context"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
)

// ResultSink receives a plan's primary sink output incrementally while the
// plan is still executing — the partial-result delivery path the serving
// layer's NDJSON responses ride on. StartStream is called exactly once, with
// the sink node and its output schema, before the first batch (and even when
// the result is empty, so consumers always learn the schema); EmitBatch then
// delivers result batches in row order. The concatenation of the emitted
// batches equals the sink value in the Results that ExecuteStream returns —
// streaming changes delivery, never content. Batches may be zero-copy views
// of engine storage: sinks must not retain or mutate them past the call.
//
// Sink methods are invoked from a single goroutine (the one executing the
// sink node), but not necessarily the caller's. A sink error aborts the
// execution with that error.
type ResultSink interface {
	StartStream(node ir.NodeID, schema cast.Schema) error
	EmitBatch(node ir.NodeID, b *cast.Batch) error
}

// ExecuteStream runs the plan, streaming the first sink node's output
// batches to sink as the terminal operator produces them. Model-valued sinks
// stream nothing (there are no batches to deliver). The returned Results and
// Report do not depend on sink, so callers cache and report streamed
// executions exactly like buffered ones; a nil sink is the buffered delivery.
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

// nodeStream is the per-execution streaming state: which node streams, and
// whether the schema has been announced. It is touched only by the goroutine
// running the streamed node (one node, one worker), so it needs no lock.
type nodeStream struct {
	sink    ResultSink
	node    ir.NodeID
	started bool
}

// emit forwards one batch, announcing the schema first if needed. Empty
// batches still announce (a stream of zero rows has a schema) but are not
// delivered.
func (st *nodeStream) emit(b *cast.Batch) error {
	if !st.started {
		st.started = true
		if err := st.sink.StartStream(st.node, b.Schema()); err != nil {
			return err
		}
	}
	if b.Rows() == 0 {
		return nil
	}
	return st.sink.EmitBatch(st.node, b)
}

// finish announces the schema of an empty tabular result whose execution
// emitted no batches, so the stream always carries a schema when the
// buffered response would carry columns.
func (st *nodeStream) finish(out adapter.Value) error {
	if st.started || out.Batch == nil {
		return nil
	}
	st.started = true
	return st.sink.StartStream(st.node, out.Batch.Schema())
}

// runStreamedNode executes the streamed sink node: through the adapter's
// native streaming path when it has one, otherwise buffered with the result
// chunked through the sink — either way the emitted concatenation equals the
// returned value.
func (r *Runtime) runStreamedNode(ctx context.Context, a adapter.Adapter, n *ir.Node, inputs []adapter.Value, st *nodeStream) (adapter.Value, adapter.ExecInfo, error) {
	var (
		out  adapter.Value
		info adapter.ExecInfo
		err  error
	)
	if se, ok := a.(adapter.StreamExecutor); ok {
		out, info, err = se.ExecuteStream(ctx, n, inputs, st.emit)
	} else {
		out, info, err = a.Execute(ctx, n, inputs)
		if err == nil {
			err = adapter.EmitChunked(ctx, st.emit, out.Batch)
		}
	}
	if err == nil {
		err = st.finish(out)
	}
	return out, info, err
}
