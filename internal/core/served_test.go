package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
)

// servedPlan compiles bench/'s cross_engine program (the a=45 v=3 patient
// filter over every feature), with its ML nodes pinned to the host: a
// device-pinned node is never a cache candidate. Once the subplan cache holds
// its p ⋈ n ⋈ s closure, migrations included, the nodes that run are train
// and predict, which reads train's model: a chain. With beside, a k-means
// over the migrated features sits beside train, so the nodes that run
// (train, k-means, predict) are not one.
func servedPlan(t testing.TB, beside bool) *compiler.Plan {
	t.Helper()
	prog := crossEnginePrograms(t)[2]
	g := prog.g
	if beside {
		features := g.MustNode(prog.pred).Inputs[1]
		g.Add(ir.OpKMeans, "ml", map[string]any{
			"cols": []string{"gender_male", "prior_visits", "n_stays"}, "k": int64(3), "iters": int64(4),
		}, features)
	}
	for _, n := range g.Nodes() {
		if n.Engine == "ml" {
			n.Device = hw.NewHostCPU().Name
		}
	}
	plan, err := compiler.Compile(g, compiler.Options{Level: 3, Accel: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestServedRunsEqualReference: once a plan's intermediates are served, a
// served node never runs and the dispatch mode is chosen on the nodes that
// do. Whether those form a chain (inline) or not (dataflow), every warm
// execution — buffered and streamed — returns the batches and the Report
// (host wall excluded) of the cache-off inline reference and of the
// cache-off dataflow.
func TestServedRunsEqualReference(t *testing.T) {
	ctx := askRows(context.Background())
	for _, tc := range []struct {
		name   string
		beside bool
	}{{"chain runs", false}, {"dataflow runs", true}} {
		// Each case once ran at four partition fan-outs. No kernel fans out
		// now, so its four rounds compile and serve the same plan on fresh
		// runtimes; they keep the fan-outs' labels.
		for _, parts := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/parts=%d", tc.name, parts), func(t *testing.T) {
				plan := servedPlan(t, tc.beside)
				if stageWidth(plan) < 2 {
					t.Fatalf("plan width %d: the whole plan would run inline anyway", stageWidth(plan))
				}
				ref := clinicalTestRuntime(t, WithSubplanCacheBytes(-1), WithSequentialExecutor())
				wantRes, wantRep, err := ref.Execute(ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				off := clinicalTestRuntime(t, WithSubplanCacheBytes(-1))
				res, rep, err := off.Execute(ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				batchesEqual(t, res, wantRes)
				reportsEqual(t, rep, wantRep)

				on := clinicalTestRuntime(t)
				if res, rep, err = on.Execute(ctx, plan); err != nil {
					t.Fatal(err)
				}
				batchesEqual(t, res, wantRes)
				reportsEqual(t, rep, wantRep)
				for round := 0; round < 2; round++ {
					seq, conc, served := on.st.execSequential.Value(), on.st.execConcurrent.Value(), on.st.subplanNodesServed.Value()
					if res, rep, err = on.Execute(ctx, plan); err != nil {
						t.Fatal(err)
					}
					batchesEqual(t, res, wantRes)
					reportsEqual(t, rep, wantRep)
					sink := &collectSink{}
					sres, srep, err := on.ExecuteStream(ctx, plan, sink)
					if err != nil {
						t.Fatal(err)
					}
					batchesEqual(t, sres, wantRes)
					reportsEqual(t, srep, wantRep)
					if got := sink.concat(t); !got.Equal(wantRes.First().Batch) {
						t.Fatal("streamed batch differs from the reference")
					}
					// Every node but train, predict (and the k-means) is served.
					runs := int64(2)
					if tc.beside {
						runs = 3
					}
					if got := on.st.subplanNodesServed.Value() - served; got != 2*(int64(plan.Graph.Len())-runs) {
						t.Fatalf("round %d: %d nodes served over two executions of %d nodes, %d running", round, got, plan.Graph.Len(), runs)
					}
					inline, dataflow := on.st.execSequential.Value()-seq, on.st.execConcurrent.Value()-conc
					if tc.beside != (dataflow == 2) || tc.beside == (inline == 2) {
						t.Fatalf("round %d: %d inline and %d dataflow executions", round, inline, dataflow)
					}
				}
			})
		}
	}
}

// TestServedHitsConcurrentTraced: many traced executions hit one entry at
// once, in both dispatch modes. Every one reads the entry's records; under
// -race a write to one — or to any run a served node shares — fails the
// run. Each must report what the cache-off reference reports, with its
// served nodes' spans marked cached.
func TestServedHitsConcurrentTraced(t *testing.T) {
	ctx := context.Background()
	for _, beside := range []bool{false, true} {
		plan := servedPlan(t, beside)
		_, wantRep, err := clinicalTestRuntime(t, WithSubplanCacheBytes(-1), WithSequentialExecutor()).Execute(askRows(ctx), plan)
		if err != nil {
			t.Fatal(err)
		}
		rt := clinicalTestRuntime(t)
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			t.Fatal(err)
		}
		const execs = 8
		reps := make([]*Report, execs)
		traces := make([]*obs.Trace, execs)
		errs := make([]error, execs)
		var wg sync.WaitGroup
		for i := range execs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					traces[i] = obs.New(fmt.Sprint("served-", i))
					_, reps[i], errs[i] = rt.Execute(obs.With(ctx, traces[i]), plan)
					if errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for i := range execs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			reportsEqual(t, reps[i], wantRep)
			cached := 0
			for _, s := range traces[i].Finish().Spans {
				if s.Cached {
					cached++
					if s.RunUS != 0 || s.QueueUS != 0 {
						t.Fatalf("served node %d spent %d µs running, %d µs queued", s.Node, s.RunUS, s.QueueUS)
					}
				}
			}
			if cached == 0 || cached >= plan.Graph.Len() {
				t.Fatalf("beside=%t: %d of %d spans cached", beside, cached, plan.Graph.Len())
			}
		}
	}
}

// BenchmarkExecuteServedProgram executes bench/'s cross_engine program
// once the subplan cache holds it: each iteration serves the whole plan,
// trained model and predictions included. CI's kernel smoke holds its B/op.
func BenchmarkExecuteServedProgram(b *testing.B) {
	rt := clinicalTestRuntime(b)
	plan := compileProgram(b, crossEnginePrograms(b)[2].g)
	ctx := context.Background()
	for range 2 { // publish, then the first hit gathers the entry
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteServedModel executes the train-once shape with its model
// served: trainOnceProgram with predict pinned to the host, so that each
// iteration serves the model entry and the prediction features from the
// subplan cache and runs predict, as a program whose prediction input varies
// does. CI's kernel smoke holds its B/op: it keeps the ML path gated now that
// a served cross_engine program runs none of it.
func BenchmarkExecuteServedModel(b *testing.B) {
	rt := clinicalTestRuntime(b)
	prog, _ := trainOnceProgram(b, 20)
	prog.g.MustNode(prog.pred).Device = hw.NewHostCPU().Name
	plan := compileProgram(b, prog.g)
	ctx := context.Background()
	for range 2 { // publish, then the first hits gather the entries
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
	predicts := opCount(rt, ir.OpPredict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if trains, n := opCount(rt, ir.OpTrain), opCount(rt, ir.OpPredict)-predicts; trains != 1 || n != int64(b.N) {
		b.Fatalf("train ran %d times, predict %d times in %d iterations", trains, n, b.N)
	}
}
