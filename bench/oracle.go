package main

import (
	"context"
	"encoding/json"
	"fmt"

	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
)

// buildProgram assembles the EIDE program for a read the way the server's
// frontends do, through eide's exported builders. It covers the step kinds
// the workloads use.
func buildProgram(spec readSpec) (*eide.Program, error) {
	p := eide.NewProgram()
	if spec.steps == nil {
		_, err := p.SQL(relEngine, spec.sql)
		return p, err
	}
	nodes := make(map[string]ir.NodeID, len(spec.steps))
	for _, st := range spec.steps {
		var (
			node ir.NodeID
			err  error
		)
		switch st.Op {
		case "sql":
			node, err = p.SQL(st.Engine, st.SQL)
		case "tswindow":
			node = p.Graph().Add(ir.OpTSWindow, st.Engine, map[string]any{
				"series_prefix": st.SeriesPrefix, "agg": st.Agg,
			})
		case "join":
			node = p.Join(st.Engine, nodes[st.Left], nodes[st.Right], st.LeftCol, st.RightCol)
		case "train":
			node = p.Train(st.Engine, nodes[st.Input], st.FeatureCols, st.LabelCol, st.Hidden, st.Epochs, st.Batch, st.LR)
		case "predict":
			node = p.Predict(st.Engine, nodes[st.Model], nodes[st.Input], st.FeatureCols)
		default:
			err = fmt.Errorf("step %q: op %q not used by any workload", st.ID, st.Op)
		}
		if err != nil {
			return nil, err
		}
		nodes[st.ID] = node
	}
	return p, nil
}

// oracle holds the expected result digests of the sampled keys.
type oracle struct {
	digests map[int]uint64
}

// oracleSamples caps how many keys the twin executes per run.
const oracleSamples = 40

// newOracle executes the workload's sampled keys on a twin of the deployment
// — same seed, so byte-identical data — built with the sequential executor
// and no subplan cache, feedback, plan cache or result cache, and records
// each result's digest. Every HTTP response for a sampled key must match.
func newOracle(w *workload, seed int64, sc scale) (*oracle, error) {
	data, err := generate(seed, sc)
	if err != nil {
		return nil, err
	}
	twin := newRuntime(data, core.WithSequentialExecutor(), core.WithSubplanCacheBytes(-1))
	or := &oracle{digests: make(map[int]uint64)}
	for key := 0; key < len(w.reads) && len(or.digests) < oracleSamples; key += w.checkStride {
		if key == w.auditKey {
			continue
		}
		h, err := twinDigest(twin, w.reads[key])
		if err != nil {
			return nil, fmt.Errorf("oracle: key %d: %w", key, err)
		}
		or.digests[key] = h
	}
	return or, nil
}

// twinDigest compiles and executes one read on the twin and digests its sink
// batch in the wire's canonical form.
func twinDigest(twin *core.Runtime, spec readSpec) (uint64, error) {
	b, err := twinBatch(twin, spec)
	if err != nil {
		return 0, err
	}
	return batchDigest(b)
}

// twinBatch compiles and executes one read on rt and returns its sink batch.
func twinBatch(rt *core.Runtime, spec readSpec) (*cast.Batch, error) {
	prog, err := buildProgram(spec)
	if err != nil {
		return nil, err
	}
	plan, err := compiler.Compile(prog.Graph(), compileOpts)
	if err != nil {
		return nil, err
	}
	res, _, err := rt.Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	if res.First().Batch == nil {
		return nil, fmt.Errorf("result is not tabular")
	}
	return res.First().Batch, nil
}

// batchDigest digests a batch exactly as the client digests the same rows
// read off the wire: each row boxed and JSON-encoded like the server does.
func batchDigest(b *cast.Batch) (uint64, error) {
	schema := b.Schema()
	cols := make([]string, schema.Len())
	for i := range cols {
		cols[i] = schema.Col(i).Name
	}
	d := newDigest(cols)
	for i := 0; i < b.Rows(); i++ {
		row, err := b.Row(i)
		if err != nil {
			return 0, err
		}
		enc, err := json.Marshal(row)
		if err != nil {
			return 0, err
		}
		d.writeRows(enc)
	}
	return d.h, nil
}
