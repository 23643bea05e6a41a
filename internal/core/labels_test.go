package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/graphstore"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
	"polystorepp/internal/relational"
)

const (
	labelsGolden = "testdata/native_labels.golden"
	rowsGolden   = "testdata/report_rows.golden"
)

// labelCase is one program of labelCases and the runtime it runs on.
type labelCase struct {
	name string
	g    *ir.Graph
	rt   func(opts ...Option) *Runtime
}

// labelCases cover every op kind over the clinical and the retail stores (and
// a graph engine beside the retail ones): each access path of a scan, both
// joins, a LIMIT, a text search, a prefix scan, both vitals summaries, a
// graph match, training, prediction, k-means and migrations between engines.
func labelCases(t *testing.T) []labelCase {
	t.Helper()
	clinical, err := datagen.GenerateClinical(rand.New(rand.NewSource(19)), 300)
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.GenerateRetail(rand.New(rand.NewSource(23)), 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs := graphstore.New()
	for u := range 40 {
		gs.AddNode(graphstore.Node{ID: graphstore.NodeID(u), Label: "customer"})
		gs.AddNode(graphstore.Node{ID: graphstore.NodeID(1000 + u), Label: "product"})
	}
	for u := range 40 {
		if err := gs.AddEdge(graphstore.Edge{From: graphstore.NodeID(u), To: graphstore.NodeID(1000 + (u*7)%40), Type: "bought"}); err != nil {
			t.Fatal(err)
		}
	}
	clinicalRT := func(opts ...Option) *Runtime {
		rt := accelTestRuntime(opts...)
		rt.Register(adapter.NewRelational("db-clinical", relational.NewEngine(clinical.Relational)))
		rt.Register(adapter.NewTimeseries("ts-vitals", clinical.Timeseries))
		rt.Register(adapter.NewText("txt-notes", clinical.Text))
		rt.Register(adapter.NewML("ml", 7))
		return rt
	}
	retailRT := func(opts ...Option) *Runtime {
		rt := accelTestRuntime(opts...)
		rt.Register(adapter.NewRelational("db-retail", relational.NewEngine(retail.Relational)))
		rt.Register(adapter.NewTimeseries("ts-clicks", retail.Timeseries))
		rt.Register(adapter.NewKV("kv-events", retail.KV))
		rt.Register(adapter.NewGraph("graph", gs))
		rt.Register(adapter.NewML("ml", 7))
		return rt
	}
	sql := func(p *eide.Program, engine, stmt string) ir.NodeID {
		t.Helper()
		id, err := p.SQL(engine, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var cases []labelCase
	add := func(name string, rt func(...Option) *Runtime, build func(p *eide.Program)) {
		p := eide.NewProgram()
		build(p)
		cases = append(cases, labelCase{name, p.Graph(), rt})
	}
	add("figure2", clinicalRT, func(p *eide.Program) {
		if _, err := eide.BuildClinicalPipeline(p, eide.Binding{Relational: "db-clinical", Timeseries: "ts-vitals", ML: "ml"}); err != nil {
			t.Fatal(err)
		}
	})
	add("index scan, top-k, limit", clinicalRT, func(p *eide.Program) {
		sql(p, "db-clinical", "SELECT pid, age FROM patients WHERE pid < 40 AND age > 30 ORDER BY age DESC LIMIT 7")
	})
	add("limit", clinicalRT, func(p *eide.Program) {
		sql(p, "db-clinical", "SELECT pid, ward FROM admissions LIMIT 5")
	})
	add("group by", clinicalRT, func(p *eide.Program) {
		sql(p, "db-clinical", "SELECT gender_male, count(*) AS n, sum(prior_visits) AS v FROM patients GROUP BY gender_male")
	})
	add("merge join", clinicalRT, func(p *eide.Program) {
		pat := p.Graph().Add(ir.OpScan, "db-clinical", map[string]any{"table": "patients"})
		adm := p.Graph().Add(ir.OpScan, "db-clinical", map[string]any{"table": "admissions"})
		proj := p.Graph().Add(ir.OpProject, "db-clinical", map[string]any{"items": []relational.ProjItem{
			{E: relational.ColRef{Name: "aid"}, Name: "aid"}, {E: relational.ColRef{Name: "pid"}, Name: "apid"},
		}}, adm)
		p.Graph().Add(ir.OpMergeJoin, "db-clinical", map[string]any{"left_col": "apid", "right_col": "pid"}, proj, pat)
	})
	add("text search", clinicalRT, func(p *eide.Program) {
		p.TextSearch("txt-notes", "heart rate", 5)
	})
	add("kmeans", clinicalRT, func(p *eide.Program) {
		in := sql(p, "db-clinical", "SELECT age, prior_visits FROM patients WHERE age > 40")
		p.KMeans("ml", in, []string{"age", "prior_visits"}, 3, 8)
	})
	add("kv scan", retailRT, func(p *eide.Program) {
		p.KVScan("kv-events", "event/1")
	})
	add("zone scan", retailRT, func(p *eide.Program) {
		sql(p, "db-retail", "SELECT tid, amount FROM transactions WHERE tid >= 1200")
	})
	add("clicks summary joined", retailRT, func(p *eide.Program) {
		c := sql(p, "db-retail", "SELECT cid, segment FROM customers WHERE segment = 2")
		s := p.Graph().Add(ir.OpTSWindow, "ts-clicks", map[string]any{"series_prefix": "clicks/", "agg": "mean"})
		p.Join("db-retail", c, s, "cid", "vpid")
	})
	add("graph match", retailRT, func(p *eide.Program) {
		if _, err := p.Cypher("graph", "MATCH (c:customer)-[:bought]->(p:product)"); err != nil {
			t.Fatal(err)
		}
	})
	return cases
}

// accelTestRuntime is a runtime with the standard accelerator pool attached.
func accelTestRuntime(opts ...Option) *Runtime {
	return NewRuntime(hw.NewHostCPU(), append([]Option{WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU())}, opts...)...)
}

// labelModes are the driver's dispatch modes, each over a fresh runtime with
// the subplan cache on: the second run of a plan is served from it.
var labelModes = []struct {
	name string
	opts []Option
}{
	{"inline", []Option{WithSequentialExecutor()}},
	{"dataflow", nil},
}

// runs are each program's lines per run ("inline cold" ... "dataflow warm").
type runs map[string]map[string][]string

// add records lines for program name in run.
func (r runs) add(run, name string, lines []string) {
	if r[run] == nil {
		r[run] = map[string][]string{}
	}
	r[run][name] = lines
}

// matchGolden fails unless every run holds the golden file's lines at path
// for every program; -update first rewrites the file from the inline cold run.
func (r runs) matchGolden(t *testing.T, path string) {
	t.Helper()
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(r["inline cold"]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for run, got := range r {
		if len(got) != len(want) {
			t.Fatalf("%s: %d programs, golden has %d", run, len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; !slices.Equal(g, w) {
				t.Fatalf("%s, %s:\n got %q\nwant %q", run, name, g, w)
			}
		}
	}
}

// TestNativeLabelsMatchGolden: every Native label a traced execution emits —
// one per span, cold and served from the subplan cache, inline and as a
// dataflow — is what testdata/native_labels.golden holds, which was written
// while every node formatted its label as it ran.
func TestNativeLabelsMatchGolden(t *testing.T) {
	kinds := map[ir.OpKind]bool{}
	got := runs{}
	for _, mode := range labelModes {
		served := 0
		for _, c := range labelCases(t) {
			plan, err := compiler.Compile(c.g, compiler.Options{Level: 3, Accel: true})
			if err != nil {
				t.Fatal(err)
			}
			rt := c.rt(mode.opts...)
			for _, temp := range []string{"cold", "warm"} {
				tr := obs.New(c.name)
				if _, _, err := rt.Execute(obs.With(context.Background(), tr), plan); err != nil {
					t.Fatalf("%s %s %s: %v", mode.name, temp, c.name, err)
				}
				var lines []string
				for _, s := range tr.Finish().Spans {
					if s.Cached {
						served++
					}
					lines = append(lines, fmt.Sprintf("%d %s %s %s", s.Node, s.Kind, s.Engine, s.Native))
					n, err := plan.Graph.Node(ir.NodeID(s.Node))
					if err != nil {
						t.Fatal(err)
					}
					kinds[n.Kind] = true
				}
				got.add(mode.name+" "+temp, c.name, lines)
			}
		}
		if served == 0 {
			t.Fatalf("%s: no span was served from the subplan cache", mode.name)
		}
	}
	got.matchGolden(t, labelsGolden)
	for k := ir.OpScan; k <= ir.OpMigrate; k++ {
		if !kinds[k] {
			t.Errorf("no span of kind %s", k)
		}
	}
}

// TestReportRowsMatchGolden: the rows of a Report asked for them are, field
// for field but the host wall time, what testdata/report_rows.golden holds —
// written while every execution built them — on the cross-engine programs
// and labelCases, inline and as a dataflow, cold and served.
func TestReportRowsMatchGolden(t *testing.T) {
	got := runs{}
	for _, mode := range labelModes {
		cases := labelCases(t)
		for _, p := range crossEnginePrograms(t) {
			cases = append(cases, labelCase{p.name, p.g, func(opts ...Option) *Runtime { return clinicalTestRuntime(t, opts...) }})
		}
		for _, c := range cases {
			plan, err := compiler.Compile(c.g, compiler.Options{Level: 3, Accel: true})
			if err != nil {
				t.Fatal(err)
			}
			rt := c.rt(mode.opts...)
			for _, temp := range []string{"cold", "warm"} {
				_, rep, err := rt.Execute(askRows(context.Background()), plan)
				if err != nil {
					t.Fatalf("%s %s %s: %v", mode.name, temp, c.name, err)
				}
				lines := []string{fmt.Sprintf("latency %s energy %s migrations %d (%d bytes)",
					ftoa(rep.Latency), ftoa(rep.Energy), rep.Migrations, rep.MigratedBytes)}
				for _, n := range rep.Nodes {
					lines = append(lines, fmt.Sprintf("%d %s %s dev=%s native=%q rows=%d->%d sim=%s/%s at=[%s,%s]",
						n.Node, n.Kind, n.Engine, n.Device, n.Native, n.RowsIn, n.RowsOut,
						ftoa(n.Sim.Seconds), ftoa(n.Sim.Joules), ftoa(n.Start), ftoa(n.Finish)))
				}
				got.add(mode.name+" "+temp, c.name, lines)
			}
		}
	}
	got.matchGolden(t, rowsGolden)
}

// ftoa renders f exactly (the shortest form that parses back to its bits).
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
