package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/relational"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/predict.golden and testdata/lowering_statements.txt from this build")

const predictGolden = "testdata/predict.golden"

// crossEngineProgram is one program whose sink is a predict node.
type crossEngineProgram struct {
	name string
	g    *ir.Graph
	pred ir.NodeID
}

// crossEnginePrograms are the Figure-2 pipeline as eide builds it, the
// program bench/'s cross_engine workload sends (hidden 16, 2 epochs, batch 64)
// at three of its patient filters, and that program over its three
// small-valued features only. Each moves the vitals summary to the relational
// engine and the joined features to the ML engine, where train and predict
// both read them. On the unscaled features the networks saturate and predict
// one or two values; the small-valued ones keep the rows apart.
func crossEnginePrograms(t testing.TB) []crossEngineProgram {
	t.Helper()
	cfg := eide.Binding{Relational: "db-clinical", Timeseries: "ts-vitals", ML: "ml"}
	p := eide.NewProgram()
	pred, err := eide.BuildClinicalPipeline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := []crossEngineProgram{{"figure2", p.Graph(), pred}}
	all := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
	small := []string{"gender_male", "prior_visits", "n_stays"}
	for _, f := range []struct {
		age, visits int
		features    []string
	}{{20, 0, all}, {45, 3, all}, {60, 6, all}, {20, 0, small}} {
		p := eide.NewProgram()
		pn, err := p.SQL(cfg.Relational, fmt.Sprintf(
			"SELECT pid, age, gender_male, prior_visits FROM patients WHERE age > %d AND prior_visits >= %d", f.age, f.visits))
		if err != nil {
			t.Fatal(err)
		}
		nn, err := p.SQL(cfg.Relational, "SELECT pid AS npid, sum(icu_hours) AS icu_hours, count(*) AS n_stays, max(long_stay) AS long_stay FROM stays GROUP BY pid")
		if err != nil {
			t.Fatal(err)
		}
		s := p.Graph().Add(ir.OpTSWindow, cfg.Timeseries, map[string]any{"series_prefix": "vitals/", "agg": "mean"})
		pns := p.Join(cfg.Relational, p.Join(cfg.Relational, pn, nn, "pid", "npid"), s, "pid", "vpid")
		m := p.Train(cfg.ML, pns, f.features, "long_stay", 16, 2, 64, 0.3)
		out = append(out, crossEngineProgram{fmt.Sprintf("bench a=%d v=%d %d features", f.age, f.visits, len(f.features)),
			p.Graph(), p.Predict(cfg.ML, m, pns, f.features)})
	}
	return out
}

// clinicalTestRuntime serves the clinical relational, timeseries and ML
// engines with the standard accelerator pool, as bench/ deploys them.
func clinicalTestRuntime(t testing.TB, opts ...Option) *Runtime {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(19)), 300)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU())}, opts...)
	rt := NewRuntime(hw.NewHostCPU(), opts...)
	rt.Register(adapter.NewRelational("db-clinical", relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewTimeseries("ts-vitals", data.Timeseries))
	rt.Register(adapter.NewML("ml", 7))
	return rt
}

// probBits renders a prediction's probabilities as their IEEE-754 bits, so a
// golden comparison tells every last-place difference (and -0 from +0).
func probBits(t *testing.T, res *Results, pred ir.NodeID) []string {
	t.Helper()
	probs, err := res.Values[pred].Batch.Floats(1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(probs))
	for i, p := range probs {
		out[i] = strconv.FormatUint(math.Float64bits(p), 16)
	}
	return out
}

func readPredictGolden(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(predictGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCrossEnginePredictionsMatchGolden: what predict answers on the
// cross-engine programs is fixed bit for bit by testdata/predict.golden, which
// was written before migrations were shared and pruned and before the ML
// engine read its input columns in place. It must not move whether the subplan
// cache is on or off, the executor inline or the DAG scheduler, the execution
// cold or warm, alone or beside others (run under -race in CI). Each program
// migrates twice — the vitals summary to the relational engine, the joined
// features once to the ML engine for both train and predict — where it used to
// migrate three times.
func TestCrossEnginePredictionsMatchGolden(t *testing.T) {
	progs := crossEnginePrograms(t)
	plans := make([]*compiler.Plan, len(progs))
	for i, p := range progs {
		plan, err := compiler.Compile(p.g, compiler.Options{Level: 3, Accel: true})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = plan
	}
	ctx := context.Background()
	if *updateGolden {
		rt := clinicalTestRuntime(t, WithSubplanCacheBytes(-1), WithSequentialExecutor())
		got := make(map[string][]string, len(progs))
		for i, p := range progs {
			res, _, err := rt.Execute(ctx, plans[i])
			if err != nil {
				t.Fatal(err)
			}
			got[p.name] = probBits(t, res, p.pred)
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(predictGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(predictGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readPredictGolden(t)
	check := func(t *testing.T, i int, res *Results, rep *Report) {
		t.Helper()
		p := progs[i]
		got, w := probBits(t, res, p.pred), want[p.name]
		if len(got) != len(w) || len(w) == 0 {
			t.Fatalf("%s: %d predictions, golden has %d", p.name, len(got), len(w))
		}
		for r := range w {
			if got[r] != w[r] {
				t.Fatalf("%s: row %d predicts bits %s, golden %s", p.name, r, got[r], w[r])
			}
		}
		if rep.Migrations != 2 {
			t.Fatalf("%s: %d migrations, want 2 (ts->db, db->ml)", p.name, rep.Migrations)
		}
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"cache off, inline", []Option{WithSubplanCacheBytes(-1), WithSequentialExecutor()}},
		{"cache off, scheduler", []Option{WithSubplanCacheBytes(-1)}},
		{"cache on, inline", []Option{WithSequentialExecutor()}},
		{"cache on, scheduler", nil},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rt := clinicalTestRuntime(t, mode.opts...)
			for _, temp := range []string{"cold", "warm"} {
				for i := range progs {
					res, rep, err := rt.Execute(ctx, plans[i])
					if err != nil {
						t.Fatalf("%s %s: %v", temp, progs[i].name, err)
					}
					check(t, i, res, rep)
				}
			}
			// Every program at once, twice over, on the runtime the loop above warmed.
			var wg sync.WaitGroup
			errs := make([]error, 2*len(progs))
			ress := make([]*Results, len(errs))
			reps := make([]*Report, len(errs))
			for j := range errs {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					ress[j], reps[j], errs[j] = rt.Execute(ctx, plans[j%len(progs)])
				}(j)
			}
			wg.Wait()
			for j, err := range errs {
				if err != nil {
					t.Fatalf("concurrent %s: %v", progs[j%len(progs)].name, err)
				}
				check(t, j%len(progs), ress[j], reps[j])
			}
		})
	}
}

// TestPrunedMigrationLeavesErrorsToConsumers: a migration carries only the
// columns its consumers declare, but a declared column the input lacks —
// even every one of them — is not the migration's error: the consumer reports
// it as it did when every column crossed (L0), over every transport.
func TestPrunedMigrationLeavesErrorsToConsumers(t *testing.T) {
	for _, cols := range [][]string{{"v", "absent"}, {"absent"}} {
		g := ir.NewGraph()
		scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
		g.Add(ir.OpKMeans, "ml", map[string]any{"cols": cols, "k": int64(2), "iters": int64(2)}, scan)
		var want string
		for _, opts := range []compiler.Options{{Level: 0}, {Level: 1}, {Level: 3}, {Level: 3, Transport: migrate.RDMA}} {
			plan, err := compiler.Compile(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = testRuntime(t, 50, false).Execute(context.Background(), plan)
			if err == nil {
				t.Fatalf("%v at %+v: kmeans over a missing column succeeded", cols, opts)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%v at %+v: %v, want the L0 error %q", cols, opts, err, want)
			}
		}
	}
}
