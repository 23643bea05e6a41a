package eide

import (
	"errors"
	"testing"

	"polystorepp/internal/ir"
)

func TestSQLExpansion(t *testing.T) {
	p := NewProgram()
	id, err := p.SQL("db", "SELECT a, b FROM t WHERE a > 5 ORDER BY b LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := map[ir.OpKind]int{}
	for _, n := range g.Nodes() {
		kinds[n.Kind]++
		if n.Engine != "db" {
			t.Fatalf("node %d on engine %q", n.ID, n.Engine)
		}
	}
	for _, want := range []ir.OpKind{ir.OpScan, ir.OpFilter, ir.OpProject, ir.OpSort, ir.OpLimit} {
		if kinds[want] != 1 {
			t.Fatalf("kind %s count = %d", want, kinds[want])
		}
	}
	sink := g.MustNode(id)
	if sink.Kind != ir.OpLimit {
		t.Fatalf("sink = %s", sink.Kind)
	}
	// The sort beneath the limit holds the limit's own hole, so it keeps
	// only that many rows; a sort with no LIMIT holds none.
	sort := g.MustNode(sink.Inputs[0])
	if sort.Kind != ir.OpSort || sort.Attr("n") == nil || sort.Attr("n") != sink.Attr("n") {
		t.Fatalf("sort n = %#v, limit n = %#v", sort.Attr("n"), sink.Attr("n"))
	}
	q := NewProgram()
	full, err := q.SQL("db", "SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Graph().MustNode(full); n.Kind != ir.OpSort || n.Attr("n") != nil {
		t.Fatalf("unlimited sort: %s holding n = %#v", n.Kind, n.Attr("n"))
	}
}

func TestSQLExpansionJoinAndGroupBy(t *testing.T) {
	p := NewProgram()
	_, err := p.SQL("db", "SELECT user_id AS u, count(*) AS n FROM orders JOIN users ON user_id = uid GROUP BY user_id")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ir.OpKind]int{}
	for _, n := range p.Graph().Nodes() {
		kinds[n.Kind]++
	}
	if kinds[ir.OpScan] != 2 || kinds[ir.OpHashJoin] != 1 || kinds[ir.OpGroupBy] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	// Alias (user_id AS u) forces a rename projection after group-by.
	if kinds[ir.OpProject] != 1 {
		t.Fatalf("project count = %d (rename after group-by missing)", kinds[ir.OpProject])
	}
}

func TestSQLBadStatement(t *testing.T) {
	p := NewProgram()
	if _, err := p.SQL("db", "DELETE FROM t"); !errors.Is(err, ErrFrontend) {
		t.Fatalf("bad sql: %v", err)
	}
}

func TestCypherMatch(t *testing.T) {
	p := NewProgram()
	id, err := p.Cypher("g", "MATCH (a:User)-[:FOLLOWS]->(b:User)")
	if err != nil {
		t.Fatal(err)
	}
	n := p.Graph().MustNode(id)
	if n.Kind != ir.OpGraphMatch || n.StringAttr("label_a") != "User" || n.StringAttr("edge_type") != "FOLLOWS" {
		t.Fatalf("match node = %+v", n)
	}
}

func TestCypherUnsupported(t *testing.T) {
	p := NewProgram()
	if _, err := p.Cypher("g", "CREATE (n:Thing)"); !errors.Is(err, ErrFrontend) {
		t.Fatalf("unsupported cypher: %v", err)
	}
}

func TestBuilderNodes(t *testing.T) {
	p := NewProgram()
	kv := p.KVScan("kv", "user:")
	txt := p.TextSearch("txt", "sepsis", 5)
	j := p.Join("db", kv, txt, "key", "doc_id")
	tr := p.Train("ml", j, []string{"value"}, "label", 8, 2, 16, 0.1)
	pr := p.Predict("ml", tr, j, []string{"value"})
	km := p.KMeans("ml", kv, []string{"x"}, 2, 5)
	so := p.Sort("db", txt, "score", true)
	g := p.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[ir.NodeID]ir.OpKind{
		kv: ir.OpKVScan, txt: ir.OpTextSearch, j: ir.OpHashJoin, tr: ir.OpTrain,
		pr: ir.OpPredict, km: ir.OpKMeans, so: ir.OpSort,
	} {
		if g.MustNode(id).Kind != want {
			t.Fatalf("node %d kind = %s, want %s", id, g.MustNode(id).Kind, want)
		}
	}
	if len(g.MustNode(pr).Inputs) != 2 {
		t.Fatal("predict should consume (model, input)")
	}
}

func TestNLTranslatorRules(t *testing.T) {
	tr := NewNLTranslator(Binding{Relational: "db", Timeseries: "ts", Text: "txt", ML: "ml"})
	for q, wantRule := range map[string]string{
		"How many stays are there?":                           "count-rows",
		"how many patients":                                   "count-rows",
		"average icu_hours of stays by pid":                   "average-by",
		"What is the average age of patients by gender_male?": "average-by",
		"Find notes mentioning cardiac arrest":                "notes-mentioning",
		"will the patient have a long stay in ICU?":           "icu-long-stay",
	} {
		p, rule, err := tr.Translate(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if rule != wantRule {
			t.Fatalf("%q matched %q, want %q", q, rule, wantRule)
		}
		if err := p.Graph().Validate(); err != nil {
			t.Fatalf("%q: invalid program: %v", q, err)
		}
	}
	if _, _, err := tr.Translate("completely unparseable request"); !errors.Is(err, ErrFrontend) {
		t.Fatalf("gibberish: %v", err)
	}
}

func TestBuildClinicalPipelineShape(t *testing.T) {
	p := NewProgram()
	pred, err := BuildClinicalPipeline(p, Binding{
		Relational: "db", Timeseries: "ts", Text: "txt", ML: "ml",
	})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MustNode(pred).Kind != ir.OpPredict {
		t.Fatalf("sink kind = %s", g.MustNode(pred).Kind)
	}
	// The pipeline spans three engines.
	engines := map[string]bool{}
	for _, n := range g.Nodes() {
		engines[n.Engine] = true
	}
	for _, want := range []string{"db", "ts", "ml"} {
		if !engines[want] {
			t.Fatalf("engine %q missing from pipeline", want)
		}
	}
}
