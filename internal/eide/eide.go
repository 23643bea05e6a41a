// Package eide is the Expressive Integrated Development Environment of
// Polystore++ (§III, §IV-A): the programming surface where users assemble
// heterogeneous programs from sub-programs in different paradigms — SQL for
// relational stores, a Cypher-ish pattern language for graph stores, method
// calls for text, key/value and ML work — and get back one annotated
// data-flow graph (the IR of Figure 5) for the compiler. The built-in
// programs — the Figure 2 pipeline and the natural-language templates —
// target the engines a Binding names.
package eide

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"polystorepp/internal/cast"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// Sentinel errors.
var (
	ErrFrontend = errors.New("eide: frontend")
)

// Program is a heterogeneous program under construction. The zero value is
// not usable; construct with NewProgram.
type Program struct {
	g *ir.Graph
	// valueShaped: some statement's literal shaped it by its value
	// (relational.SelectStmt.ValueShaped).
	valueShaped bool
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{g: ir.NewGraph()} }

// Graph returns the program's IR graph.
func (p *Program) Graph() *ir.Graph { return p.g }

// ValueShaped reports whether a literal of one of the program's statements
// shaped its graph by its value, not only its type
// (relational.SelectStmt.ValueShaped): another statement differing from it
// only in that constant builds another graph.
func (p *Program) ValueShaped() bool { return p.valueShaped }

// SQL adds a relational sub-program on the named engine. The statement is
// parsed here (inter-subprogram checks happen in the compiler frontend) and
// expanded into fine-grained IR operators, one per step of the statement's
// lowering (relational.SelectStmt.Steps), so the optimizer can move them
// across engine boundaries (§IV-B2). Its literals are lifted into the graph's
// bind vector (relational.ParseLifted): the nodes hold typed holes, so
// statements that differ only in their constants build one shape, which
// compiles once.
func (p *Program) SQL(engine, sql string) (ir.NodeID, error) {
	stmt, binds, err := relational.ParseLifted(sql, p.g.Binds())
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFrontend, err)
	}
	p.g.SetBinds(binds)
	p.valueShaped = p.valueShaped || stmt.ValueShaped
	var cur ir.NodeID
	var buf [8]relational.Step
	for _, st := range stmt.Steps(buf[:0]) {
		switch st.Kind {
		case relational.StepScan:
			cur = p.g.Add(ir.OpScan, engine, map[string]any{"table": st.Table})
		case relational.StepJoin:
			right := p.g.Add(ir.OpScan, engine, map[string]any{"table": st.Table})
			cur = p.Join(engine, cur, right, st.LeftCol, st.RightCol)
		case relational.StepFilter:
			cur = p.g.Add(ir.OpFilter, engine, map[string]any{"pred": st.Pred}, cur)
		case relational.StepGroupBy:
			cur = p.g.Add(ir.OpGroupBy, engine, map[string]any{"group_cols": st.GroupCols, "aggs": st.Aggs}, cur)
		case relational.StepProject:
			cur = p.g.Add(ir.OpProject, engine, map[string]any{"items": st.Items}, cur)
		case relational.StepSort:
			attrs := map[string]any{"order_by": st.OrderBy}
			if st.LimitSlot >= 0 {
				// The LIMIT's own hole: the sort keeps that many rows.
				attrs["n"] = relational.Param{Slot: st.LimitSlot, Type: cast.Int64}
			}
			cur = p.g.Add(ir.OpSort, engine, attrs, cur)
		case relational.StepLimit:
			n := relational.Param{Slot: st.LimitSlot, Type: cast.Int64}
			cur = p.g.Add(ir.OpLimit, engine, map[string]any{"n": n}, cur)
		}
	}
	return cur, nil
}

// cypherMatch recognizes: MATCH (a:LabelA)-[:TYPE]->(b:LabelB)
var cypherMatch = regexp.MustCompile(
	`(?i)^\s*MATCH\s*\(\s*\w*\s*:\s*(\w+)\s*\)\s*-\s*\[\s*:\s*(\w+)\s*\]\s*->\s*\(\s*\w*\s*:\s*(\w+)\s*\)\s*$`)

// Cypher adds a graph sub-program on the named engine from a Cypher-ish
// string. The one supported form is a pattern match:
//
//	MATCH (a:LabelA)-[:TYPE]->(b:LabelB)
func (p *Program) Cypher(engine, query string) (ir.NodeID, error) {
	if m := cypherMatch.FindStringSubmatch(query); m != nil {
		return p.g.Add(ir.OpGraphMatch, engine, map[string]any{
			"label_a": m[1], "edge_type": m[2], "label_b": m[3],
		}), nil
	}
	return 0, fmt.Errorf("%w: unsupported cypher %q", ErrFrontend, query)
}

// TextSearch adds a ranked text retrieval node (AND semantics, top-k).
func (p *Program) TextSearch(engine, query string, k int) ir.NodeID {
	return p.g.Add(ir.OpTextSearch, engine, map[string]any{"query": query, "k": int64(k)})
}

// KVScan adds a key/value prefix-scan node.
func (p *Program) KVScan(engine, prefix string) ir.NodeID {
	return p.g.Add(ir.OpKVScan, engine, map[string]any{"prefix": prefix})
}

// Join adds a middleware-level equi-join executed on the named (relational)
// engine, joining the outputs of two sub-programs — the cross-store join of
// Figure 2 ("Join P, N and S to get Feature Vector").
func (p *Program) Join(engine string, left, right ir.NodeID, leftCol, rightCol string) ir.NodeID {
	return p.g.Add(ir.OpHashJoin, engine, map[string]any{
		"left_col": leftCol, "right_col": rightCol,
	}, left, right)
}

// Train adds an ML training node on the named engine: a feed-forward MLP
// over the feature input. featureCols name the input columns; labelCol the
// 0/1 label.
func (p *Program) Train(engine string, input ir.NodeID, featureCols []string, labelCol string, hidden, epochs, batch int, lr float64) ir.NodeID {
	return p.g.Add(ir.OpTrain, engine, map[string]any{
		"feature_cols": append([]string(nil), featureCols...),
		"label_col":    labelCol,
		"hidden":       int64(hidden),
		"epochs":       int64(epochs),
		"batch":        int64(batch),
		"lr":           lr,
	}, input)
}

// Predict adds an inference node applying the model from the train node to
// the feature input.
func (p *Program) Predict(engine string, model, input ir.NodeID, featureCols []string) ir.NodeID {
	return p.g.Add(ir.OpPredict, engine, map[string]any{
		"feature_cols": append([]string(nil), featureCols...),
	}, model, input)
}

// KMeans adds a clustering node over the numeric columns of the input.
func (p *Program) KMeans(engine string, input ir.NodeID, cols []string, k, iters int) ir.NodeID {
	return p.g.Add(ir.OpKMeans, engine, map[string]any{
		"cols": append([]string(nil), cols...), "k": int64(k), "iters": int64(iters),
	}, input)
}

// Sort adds an explicit sort node (used by the §III worked example, where
// the final sort is the acceleration target).
func (p *Program) Sort(engine string, input ir.NodeID, col string, desc bool) ir.NodeID {
	return p.g.Add(ir.OpSort, engine, map[string]any{
		"order_by": []relational.OrderItem{{Col: col, Desc: desc}},
	}, input)
}

// --- Natural-language frontend (§IV-A-e) ---

// NLRule is one template of the rule-based NL translator.
type NLRule struct {
	Name    string
	Pattern *regexp.Regexp
	// Build constructs the program fragment from the regexp captures.
	Build func(p *Program, m []string) (ir.NodeID, error)
}

// Binding names the engine instances the built-in programs run on.
type Binding struct {
	Relational string
	Timeseries string
	Text       string
	ML         string
}

// NLTranslator converts restricted natural-language questions into
// heterogeneous programs, the SQLizer/Almond role the paper sketches.
type NLTranslator struct {
	rules []NLRule
}

// NewNLTranslator returns a translator whose programs run on the engines b
// names.
func NewNLTranslator(b Binding) *NLTranslator {
	return &NLTranslator{rules: []NLRule{
		{
			Name:    "count-rows",
			Pattern: regexp.MustCompile(`(?i)^how many (\w+)(?: are there)?\??$`),
			Build: func(p *Program, m []string) (ir.NodeID, error) {
				return p.SQL(b.Relational, fmt.Sprintf("SELECT count(*) AS n FROM %s", m[1]))
			},
		},
		{
			Name:    "average-by",
			Pattern: regexp.MustCompile(`(?i)^(?:what is the )?average (\w+) of (\w+) by (\w+)\??$`),
			Build: func(p *Program, m []string) (ir.NodeID, error) {
				return p.SQL(b.Relational, fmt.Sprintf(
					"SELECT %s, avg(%s) AS avg_%s FROM %s GROUP BY %s", m[3], m[1], m[1], m[2], m[3]))
			},
		},
		{
			Name:    "notes-mentioning",
			Pattern: regexp.MustCompile(`(?i)^(?:find|which) notes mention(?:ing)? (.+?)\??$`),
			Build: func(p *Program, m []string) (ir.NodeID, error) {
				return p.TextSearch(b.Text, m[1], 20), nil
			},
		},
		{
			// The headline Figure 2 query: "Will patients have a long stay at
			// the hospital (> 5 days) or short (<= 5 days) when they exit the
			// ICU." Any phrasing containing "long stay" triggers the clinical
			// pipeline template.
			Name:    "icu-long-stay",
			Pattern: regexp.MustCompile(`(?i)long stay`),
			Build: func(p *Program, m []string) (ir.NodeID, error) {
				return BuildClinicalPipeline(p, b)
			},
		},
	}}
}

// Translate builds a program for the question, reporting the matched rule.
func (t *NLTranslator) Translate(question string) (*Program, string, error) {
	q := strings.TrimSpace(question)
	for _, r := range t.rules {
		if m := r.Pattern.FindStringSubmatch(q); m != nil {
			p := NewProgram()
			if _, err := r.Build(p, m); err != nil {
				return nil, "", err
			}
			return p, r.Name, nil
		}
	}
	return nil, "", fmt.Errorf("%w: no rule matches %q", ErrFrontend, question)
}

// BuildClinicalPipeline assembles the Figure 2 heterogeneous program:
//
//	P = patient admission details          (relational)
//	N = time in wards/ICU                  (relational aggregate)
//	S = vital signs from ICU devices       (timeseries per-patient means)
//	join P, N, S -> feature vectors -> train MLP -> predict
//
// on the relational, timeseries and ML engines b names. It returns the
// prediction node. The schemas follow internal/datagen.
func BuildClinicalPipeline(p *Program, b Binding) (ir.NodeID, error) {
	pNode, err := p.SQL(b.Relational, "SELECT pid, age, gender_male, prior_visits FROM patients")
	if err != nil {
		return 0, err
	}
	nNode, err := p.SQL(b.Relational,
		"SELECT pid AS npid, sum(icu_hours) AS icu_hours, count(*) AS n_stays, max(long_stay) AS long_stay FROM stays GROUP BY pid")
	if err != nil {
		return 0, err
	}
	sNode := p.g.Add(ir.OpTSWindow, b.Timeseries, map[string]any{
		// Per-patient vitals summary (the adapter aggregates all series with
		// the given prefix into one row per patient).
		"series_prefix": "vitals/",
		"agg":           "mean",
	})
	pn := p.Join(b.Relational, pNode, nNode, "pid", "npid")
	pns := p.Join(b.Relational, pn, sNode, "pid", "vpid")
	features := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
	model := p.Train(b.ML, pns, features, "long_stay", 32, 12, 64, 0.3)
	return p.Predict(b.ML, model, pns, features), nil
}
