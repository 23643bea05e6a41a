package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
)

// The ML nodes are memoized like every other deterministic intermediate: a
// train's model, a predict's and a k-means' batch, keyed on the ML adapter's
// seed besides the stores their inputs read.

var (
	clinicalBinding = eide.Binding{Relational: "db-clinical", Timeseries: "ts-vitals", ML: "ml"}
	benchFeatures   = []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
)

// compileProgram compiles g as the server does.
func compileProgram(t testing.TB, g *ir.Graph) *compiler.Plan {
	t.Helper()
	plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// trainOnceProgram trains bench/'s cross_engine model on the patients older
// than 45 with at least 3 prior visits and predicts for those older than age.
// Its training features feed train alone, so the train subtree is a closed
// candidate every age shares. It returns the train node too.
func trainOnceProgram(t testing.TB, age int) (crossEngineProgram, ir.NodeID) {
	t.Helper()
	p := eide.NewProgram()
	m := p.Train(clinicalBinding.ML, cohort(t, p, clinicalBinding, 45, 3), benchFeatures, "long_stay", 16, 2, 64, 0.3)
	pred := p.Predict(clinicalBinding.ML, m, cohort(t, p, clinicalBinding, age, 0), benchFeatures)
	return crossEngineProgram{fmt.Sprintf("train a=45 v=3, predict a=%d", age), p.Graph(), pred}, m
}

// trainProgram trains a small model on every patient: a plan whose sink is
// train, a chain (scan, migration, train) once compiled.
func trainProgram(t testing.TB) (*compiler.Plan, ir.NodeID) {
	t.Helper()
	p := eide.NewProgram()
	a, err := p.SQL(clinicalBinding.Relational, "SELECT age, prior_visits, gender_male FROM patients")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Train(clinicalBinding.ML, a, []string{"age", "prior_visits"}, "gender_male", 4, 3, 32, 0.1)
	return compileProgram(t, p.Graph()), m
}

// opCount is how many nodes of kind k rt has run.
func opCount(rt *Runtime, k ir.OpKind) int64 {
	for _, e := range rt.OpStats().Entries() {
		if e.Op == k.String() {
			n, _ := e.Latency.Snapshot()
			return n
		}
	}
	return 0
}

// TestFigure2ServedFromRootProbe: run a second time on one runtime, each
// program of TestCrossEnginePredictionsMatchGolden is answered whole by the
// root probe — nothing trains again — and still predicts
// testdata/predict.golden bit for bit, its two migrations replayed.
func TestFigure2ServedFromRootProbe(t *testing.T) {
	want := readPredictGolden(t)
	ctx := context.Background()
	rt := clinicalTestRuntime(t)
	for _, p := range crossEnginePrograms(t) {
		plan := compileProgram(t, p.g)
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
		trains := opCount(rt, ir.OpTrain)
		res, rep, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), new(RootMiss))
		if !ok {
			t.Fatalf("%s: the root probe missed a program just run", p.name)
		}
		if n := opCount(rt, ir.OpTrain); n != trains {
			t.Fatalf("%s: the served program trained (%d -> %d)", p.name, trains, n)
		}
		if got := probBits(t, res, p.pred); !slices.Equal(got, want[p.name]) {
			t.Fatalf("%s: served predictions differ from the golden", p.name)
		}
		if rep.Migrations != 2 {
			t.Fatalf("%s: %d migrations replayed, want 2", p.name, rep.Migrations)
		}
	}
}

// TestWriteInvalidatesServedProgram: an append to patients, to stays or to a
// vitals series — each read by the Figure-2 program — makes its root probe
// miss, and the re-run trains again and answers what a cache-off runtime
// given the same append does.
func TestWriteInvalidatesServedProgram(t *testing.T) {
	ctx := context.Background()
	prog := crossEnginePrograms(t)[1] // every patient but the youngest
	plan := compileProgram(t, prog.g)
	m := prog.g.MustNode(prog.pred).Inputs[0]
	later := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for _, w := range []struct {
		engine string
		in     adapter.Ingest
	}{
		{"db-clinical", adapter.Ingest{Table: "patients", Row: []any{int64(1), int64(80), int64(1), int64(7)}}},
		{"db-clinical", adapter.Ingest{Table: "stays", Row: []any{int64(1 << 20), int64(1), 95.0, int64(5), int64(1)}}},
		{"ts-vitals", adapter.Ingest{Series: "vitals/1/hr", TS: later, Value: 4000}},
	} {
		t.Run(w.in.Table+w.in.Series, func(t *testing.T) {
			on, off := clinicalTestRuntime(t), clinicalTestRuntime(t, WithSubplanCacheBytes(-1))
			before, _, err := on.Execute(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := on.ProbeRoot(ctx, plan, on.VersionVector(plan.Touches), new(RootMiss)); !ok {
				t.Fatal("the root probe missed a program just run")
			}
			for _, rt := range []*Runtime{on, off} {
				if err := rt.Ingest(ctx, w.engine, w.in); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, ok := on.ProbeRoot(ctx, plan, on.VersionVector(plan.Touches), new(RootMiss)); ok {
				t.Fatal("the root probe served the program across an append to what it reads")
			}
			trains := opCount(on, ir.OpTrain)
			got, _, err := on.Execute(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := off.Execute(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if opCount(on, ir.OpTrain) != trains+1 {
				t.Fatal("the program was not trained again after the append")
			}
			if !slices.Equal(probBits(t, got, prog.pred), probBits(t, want, prog.pred)) {
				t.Fatal("after the append, the cached runtime predicts unlike the cache-off one")
			}
			if reflect.DeepEqual(got.Values[m].Model, before.Values[m].Model) {
				t.Fatal("the append moved no weight of the model: it tests nothing")
			}
		})
	}
}

// TestSharedTrainingServedOnce: programs that train on one cohort and
// predict for different ones train once. After the first, each is served
// the model entry (a hit on the train node's subtree in its trace) and runs
// only its own prediction input and predict, whose answers are bit-equal to
// a cache-off runtime's.
func TestSharedTrainingServedOnce(t *testing.T) {
	ctx := context.Background()
	on, off := clinicalTestRuntime(t), clinicalTestRuntime(t, WithSubplanCacheBytes(-1))
	for i, age := range []int{20, 50, 70} {
		prog, m := trainOnceProgram(t, age)
		plan := compileProgram(t, prog.g)
		tr := obs.New("train-once")
		got, _, err := on.Execute(obs.With(ctx, tr), plan)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := off.Execute(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(probBits(t, got, prog.pred), probBits(t, want, prog.pred)) {
			t.Fatalf("%s: predictions differ from the cache-off runtime's", prog.name)
		}
		if n := opCount(on, ir.OpTrain); n != 1 {
			t.Fatalf("%s: train ran %d times over %d programs", prog.name, n, i+1)
		}
		served := slices.ContainsFunc(tr.Finish().Events, func(e obs.Event) bool {
			return e.Name == "cache.subplan" && strings.HasPrefix(e.Detail, fmt.Sprintf("hit root=%d ", m))
		})
		if served != (i > 0) {
			t.Fatalf("%s: the model entry served %t, want %t", prog.name, served, i > 0)
		}
	}
}

// TestServedKMeansEqualsFresh: a k-means the root probe serves answers the
// batch a cache-off runtime computes.
func TestServedKMeansEqualsFresh(t *testing.T) {
	ctx := context.Background()
	p := eide.NewProgram()
	a, err := p.SQL(clinicalBinding.Relational, "SELECT age, prior_visits, gender_male FROM patients WHERE age > 30")
	if err != nil {
		t.Fatal(err)
	}
	p.KMeans(clinicalBinding.ML, a, []string{"age", "prior_visits", "gender_male"}, 3, 5)
	plan := compileProgram(t, p.Graph())
	want, _, err := clinicalTestRuntime(t, WithSubplanCacheBytes(-1)).Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	rt := clinicalTestRuntime(t)
	if _, _, err := rt.Execute(ctx, plan); err != nil {
		t.Fatal(err)
	}
	got, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), new(RootMiss))
	if !ok {
		t.Fatal("the root probe missed a k-means just run")
	}
	batchesEqual(t, got, want)
}

// errAfter is a context whose Err answers nil n times, then Canceled.
type errAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestCanceledTrainPublishesNothing: a train canceled between its epochs —
// Fit asks the context before each — fails its execution and publishes no
// model. The next execution trains again, from the initial weights, and
// yields (and publishes) the model a cache-off runtime trains; the one
// after is served it.
func TestCanceledTrainPublishesNothing(t *testing.T) {
	ctx := context.Background()
	plan, m := trainProgram(t)
	fresh, _, err := clinicalTestRuntime(t, WithSubplanCacheBytes(-1)).Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// The execution's Err calls, counted; the last is Fit's before its last
	// epoch, as train is the sink.
	count := &errAfter{Context: ctx, n: 1 << 30}
	if _, _, err := clinicalTestRuntime(t).Execute(count, plan); err != nil {
		t.Fatal(err)
	}
	rt := clinicalTestRuntime(t)
	if _, _, err := rt.Execute(&errAfter{Context: ctx, n: count.calls.Load() - 1}, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("the execution canceled mid-training returned %v", err)
	}
	if _, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), new(RootMiss)); ok {
		t.Fatal("a canceled training published its model")
	}
	for round := range 2 {
		res, _, err := rt.Execute(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Values[m].Model, fresh.Values[m].Model) {
			t.Fatalf("round %d: the model differs from a cache-off runtime's", round)
		}
		if n := opCount(rt, ir.OpTrain); n != 1 {
			t.Fatalf("round %d: train ran %d times, want once", round, n)
		}
	}
}

// TestServedModelNotTrainedInPlace: a model the cache serves is never
// trained again in place — a train starts from a copy of its initial
// weights — so after a write makes the program train anew, the model served
// before holds the parameters it was published with.
func TestServedModelNotTrainedInPlace(t *testing.T) {
	ctx := context.Background()
	plan, m := trainProgram(t)
	rt := clinicalTestRuntime(t)
	first, _, err := rt.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	published := first.Values[m].Model
	snapshot := published.Clone()
	served, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), new(RootMiss))
	if !ok || served.Values[m].Model != published {
		t.Fatalf("the root probe (hit %t) did not serve the published model", ok)
	}
	if err := rt.Ingest(ctx, "db-clinical", adapter.Ingest{Table: "patients", Row: []any{int64(1), int64(80), int64(1), int64(7)}}); err != nil {
		t.Fatal(err)
	}
	again, _, err := rt.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if again.Values[m].Model == published || opCount(rt, ir.OpTrain) != 2 {
		t.Fatal("the program was not trained anew after the write")
	}
	if !reflect.DeepEqual(published, snapshot) {
		t.Fatal("training anew wrote to the model served before")
	}
}

// TestReRegisteredSeedNotServed: the ML adapter's seed is part of what an ML
// node's entry is keyed on, so an engine registered again under its name
// with another seed is never served the first seed's model: its answers are
// a fresh runtime's of that seed, and differ from the first seed's.
func TestReRegisteredSeedNotServed(t *testing.T) {
	ctx := context.Background()
	prog := crossEnginePrograms(t)[4] // the small-valued features keep the predictions apart
	plan := compileProgram(t, prog.g)
	rt := clinicalTestRuntime(t)
	seed7, _, err := rt.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	rt.Register(adapter.NewML("ml", 8))
	if _, _, ok := rt.ProbeRoot(ctx, plan, rt.VersionVector(plan.Touches), new(RootMiss)); ok {
		t.Fatal("the root probe served a program trained under the old seed")
	}
	got, _, err := rt.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	ref := clinicalTestRuntime(t, WithSubplanCacheBytes(-1))
	ref.Register(adapter.NewML("ml", 8))
	want, _, err := ref.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(probBits(t, got, prog.pred), probBits(t, want, prog.pred)) {
		t.Fatal("after re-registering, predictions differ from a fresh runtime of the new seed")
	}
	if slices.Equal(probBits(t, got, prog.pred), probBits(t, seed7, prog.pred)) {
		t.Fatal("seeds 7 and 8 predict alike: the test tells nothing")
	}
}

// TestServedModelConcurrent: once one program has trained and published its
// model, programs predicting for other cohorts at once share that model,
// each answering as a cache-off runtime does (run under -race in CI: a write
// to the shared model fails it). Identical programs at once are merged
// before they execute, by the server's single-flight
// (server.TestIdenticalProgramsTrainOnce).
func TestServedModelConcurrent(t *testing.T) {
	ctx := context.Background()
	const execs = 8
	rt, off := clinicalTestRuntime(t), clinicalTestRuntime(t, WithSubplanCacheBytes(-1))
	progs := make([]crossEngineProgram, execs)
	plans := make([]*compiler.Plan, execs)
	wants := make([][]string, execs)
	var m ir.NodeID
	for i := range execs {
		progs[i], m = trainOnceProgram(t, 20+5*i)
		plans[i] = compileProgram(t, progs[i].g)
		want, _, err := off.Execute(ctx, plans[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = probBits(t, want, progs[i].pred)
	}
	first, _, err := rt.Execute(ctx, plans[0])
	if err != nil {
		t.Fatal(err)
	}
	published := first.Values[m].Model
	if published == nil || !slices.Equal(probBits(t, first, progs[0].pred), wants[0]) {
		t.Fatalf("%s trained no model or predicts unlike a cache-off runtime", progs[0].name)
	}
	ress := make([]*Results, execs)
	errs := make([]error, execs)
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ress[i], _, errs[i] = rt.Execute(ctx, plans[1+i%(execs-1)])
		}()
	}
	wg.Wait()
	for i := range execs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		j := 1 + i%(execs-1)
		if got := probBits(t, ress[i], progs[j].pred); !slices.Equal(got, wants[j]) {
			t.Fatalf("%s predicts unlike a cache-off runtime", progs[j].name)
		}
		if ress[i].Values[m].Model != published {
			t.Fatalf("execution %d holds another model than the one published", i)
		}
	}
	if n := opCount(rt, ir.OpTrain); n != 1 {
		t.Fatalf("train ran %d times", n)
	}
}
