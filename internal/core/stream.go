package core

import (
	"context"

	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
)

// ResultSink receives a plan's first sink output after the plan has run:
// StartStream once, with the sink node and its output schema (even when the
// result is empty), then EmitBatch with the whole result when it has rows.
// The batch is the sink value in the Results that ExecuteStream returns and
// may be a zero-copy view of engine storage: sinks must not retain or mutate
// it past the call.
type ResultSink interface {
	StartStream(node ir.NodeID, schema cast.Schema) error
	EmitBatch(node ir.NodeID, b *cast.Batch) error
}

// ExecuteStream is Execute followed by one hand-off of the first sink's
// batch to sink (nothing for a model-valued sink or a nil sink). A sink
// error fails the call. The serving layer encodes finished outcomes itself;
// this entry point remains for the layer benchmarks.
func (r *Runtime) ExecuteStream(ctx context.Context, plan *compiler.Plan, sink ResultSink) (*Results, *Report, error) {
	res, rep, err := r.Execute(ctx, plan)
	if err != nil || sink == nil || len(plan.Sinks) == 0 {
		return res, rep, err
	}
	n := plan.Sinks[0]
	b := res.Values[n].Batch
	if b == nil {
		return res, rep, nil
	}
	if err := sink.StartStream(n, b.Schema()); err != nil {
		return nil, nil, err
	}
	if b.Rows() > 0 {
		if err := sink.EmitBatch(n, b); err != nil {
			return nil, nil, err
		}
	}
	return res, rep, nil
}
