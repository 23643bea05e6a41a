package server

import (
	"fmt"

	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
)

// ProgramStep is one operator of a multi-engine program request: the JSON
// surface over the EIDE program builders. Steps are evaluated in order; later
// steps reference earlier ones by id (join inputs, sort input, predict
// model), so one request can express the paper's cross-engine pipelines —
// e.g. SQL sub-programs on the relational store joined with a timeseries
// feature summary and fed into ML training (Figure 2).
type ProgramStep struct {
	ID     string `json:"id"`
	Op     string `json:"op"` // sql, cypher, text, tswindow, kvscan, join, sort, train, predict
	Engine string `json:"engine"`

	// sql
	SQL string `json:"sql,omitempty"`
	// cypher / text
	Query string `json:"query,omitempty"`
	K     int    `json:"k,omitempty"` // text top-k (default 10)
	// tswindow: one row per entity, the mean of each "<prefix><id>/<metric>"
	// series; agg may only be "mean"
	SeriesPrefix string `json:"series_prefix,omitempty"`
	Agg          string `json:"agg,omitempty"`
	// kvscan
	Prefix string `json:"prefix,omitempty"`
	// join
	Left     string `json:"left,omitempty"`
	Right    string `json:"right,omitempty"`
	LeftCol  string `json:"left_col,omitempty"`
	RightCol string `json:"right_col,omitempty"`
	// sort
	Input string `json:"input,omitempty"`
	Col   string `json:"col,omitempty"`
	Desc  bool   `json:"desc,omitempty"`
	// train / predict
	FeatureCols []string `json:"feature_cols,omitempty"`
	LabelCol    string   `json:"label_col,omitempty"`
	Hidden      int      `json:"hidden,omitempty"`
	Epochs      int      `json:"epochs,omitempty"`
	Batch       int      `json:"batch,omitempty"`
	LR          float64  `json:"lr,omitempty"`
	Model       string   `json:"model,omitempty"` // predict: id of the train step
}

// buildProgram assembles an EIDE program from the step list. All errors are
// client errors (bad request).
func buildProgram(steps []ProgramStep) (*eide.Program, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("program needs at least one step")
	}
	p := eide.NewProgram()
	nodes := make(map[string]ir.NodeID, len(steps))
	resolve := func(step ProgramStep, field, ref string) (ir.NodeID, error) {
		if ref == "" {
			return 0, fmt.Errorf("step %q (%s): missing %s reference", step.ID, step.Op, field)
		}
		id, ok := nodes[ref]
		if !ok {
			return 0, fmt.Errorf("step %q (%s): %s references unknown step %q", step.ID, step.Op, field, ref)
		}
		return id, nil
	}
	for i, st := range steps {
		if st.ID == "" {
			return nil, fmt.Errorf("step %d: missing id", i)
		}
		if _, dup := nodes[st.ID]; dup {
			return nil, fmt.Errorf("step %q: duplicate id", st.ID)
		}
		if st.Engine == "" {
			return nil, fmt.Errorf("step %q (%s): missing engine", st.ID, st.Op)
		}
		var (
			node ir.NodeID
			err  error
		)
		switch st.Op {
		case "sql":
			if st.SQL == "" {
				return nil, fmt.Errorf("step %q: sql op needs a sql field", st.ID)
			}
			node, err = p.SQL(st.Engine, st.SQL)
		case "cypher":
			if st.Query == "" {
				return nil, fmt.Errorf("step %q: cypher op needs a query field", st.ID)
			}
			node, err = p.Cypher(st.Engine, st.Query)
		case "text":
			if st.Query == "" {
				return nil, fmt.Errorf("step %q: text op needs a query field", st.ID)
			}
			k := st.K
			if k <= 0 {
				k = 10
			}
			node = p.TextSearch(st.Engine, st.Query, k)
		case "tswindow":
			if st.SeriesPrefix == "" {
				return nil, fmt.Errorf("step %q: tswindow needs a series_prefix field", st.ID)
			}
			node = p.Graph().Add(ir.OpTSWindow, st.Engine, map[string]any{
				"series_prefix": st.SeriesPrefix,
				"agg":           st.Agg,
			})
		case "kvscan":
			node = p.KVScan(st.Engine, st.Prefix)
		case "join":
			var l, r ir.NodeID
			if l, err = resolve(st, "left", st.Left); err != nil {
				return nil, err
			}
			if r, err = resolve(st, "right", st.Right); err != nil {
				return nil, err
			}
			if st.LeftCol == "" || st.RightCol == "" {
				return nil, fmt.Errorf("step %q: join needs left_col and right_col", st.ID)
			}
			node = p.Join(st.Engine, l, r, st.LeftCol, st.RightCol)
		case "sort":
			var in ir.NodeID
			if in, err = resolve(st, "input", st.Input); err != nil {
				return nil, err
			}
			if st.Col == "" {
				return nil, fmt.Errorf("step %q: sort needs a col field", st.ID)
			}
			node = p.Sort(st.Engine, in, st.Col, st.Desc)
		case "train":
			var in ir.NodeID
			if in, err = resolve(st, "input", st.Input); err != nil {
				return nil, err
			}
			if len(st.FeatureCols) == 0 || st.LabelCol == "" {
				return nil, fmt.Errorf("step %q: train needs feature_cols and label_col", st.ID)
			}
			hidden, epochs, batch := st.Hidden, st.Epochs, st.Batch
			if hidden <= 0 {
				hidden = 16
			}
			if epochs <= 0 {
				epochs = 5
			}
			// Bound the client-controlled training shape: a hostile body
			// must not be able to demand multi-gigabyte weight matrices or
			// effectively unbounded CPU from one request.
			if hidden > 1024 {
				return nil, fmt.Errorf("step %q: hidden %d exceeds limit 1024", st.ID, hidden)
			}
			if epochs > 100000 {
				return nil, fmt.Errorf("step %q: epochs %d exceeds limit 100000", st.ID, epochs)
			}
			if batch < 0 {
				batch = 0
			}
			node = p.Train(st.Engine, in, st.FeatureCols, st.LabelCol, hidden, epochs, batch, st.LR)
		case "predict":
			var model, in ir.NodeID
			if model, err = resolve(st, "model", st.Model); err != nil {
				return nil, err
			}
			if in, err = resolve(st, "input", st.Input); err != nil {
				return nil, err
			}
			if len(st.FeatureCols) == 0 {
				return nil, fmt.Errorf("step %q: predict needs feature_cols", st.ID)
			}
			node = p.Predict(st.Engine, model, in, st.FeatureCols)
		default:
			return nil, fmt.Errorf("step %q: unknown op %q", st.ID, st.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("step %q: %v", st.ID, err)
		}
		nodes[st.ID] = node
	}
	return p, nil
}
