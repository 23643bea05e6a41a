package core

import (
	"context"
	"math/rand"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
)

// TestFigure2CycleUnderTightBudget cycles bench/'s cross_engine stream — the
// Figure-2 program over its 400 patient filters, in a seeded order — through
// subplan caches smaller than the stream's working set, the bytes one cycle
// publishes into an unbounded cache. Under strict LRU a cycle through a cache
// a few percent too small evicts every per-filter entry before it repeats, so
// only the closures all 400 programs share (the stays summary and the vitals
// summary with its migration: 5 nodes) are served. Eviction by cost per entry
// keeps most per-filter entries, which are small beside the shared ones: on
// the last cycle at 0.93 of the working set a request must be served at least
// 10 nodes (11 read), and at 0.6 at least 7 (8.2 read).
func TestFigure2CycleUnderTightBudget(t *testing.T) {
	cfg := eide.Binding{Relational: "db-clinical", Timeseries: "ts-vitals", ML: "ml"}
	features := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
	var plans []*compiler.Plan
	for a := 20; a < 70; a++ {
		for v := 0; v < 8; v++ {
			plan, err := compiler.Compile(benchProgram(t, cfg, a, v, features).g, compiler.Options{Level: 3, Accel: true})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	ctx := context.Background()
	// cycle executes every plan once and returns the nodes served per request.
	cycle := func(rt *Runtime) float64 {
		served := rt.st.subplanNodesServed.Value()
		for _, plan := range plans {
			if _, _, err := rt.Execute(ctx, plan); err != nil {
				t.Fatal(err)
			}
		}
		return float64(rt.st.subplanNodesServed.Value()-served) / float64(len(plans))
	}

	rt := clinicalTestRuntime(t, WithSubplanCacheBytes(1<<30))
	cycle(rt)
	st := rt.subplan.Stats()
	if st.Evictions != 0 {
		t.Fatalf("%d evictions from a 1 GiB cache: the working set is not measured", st.Evictions)
	}
	working := st.Cost
	t.Logf("working set: %d entries, %d bytes; warm, a request is served %.2f nodes", st.Entries, working, cycle(rt))

	for _, tc := range []struct {
		share float64
		min   float64
	}{{0.93, 10}, {0.6, 7}} {
		rt := clinicalTestRuntime(t, WithSubplanCacheBytes(int64(tc.share*float64(working))))
		cycle(rt)
		cycle(rt)
		got := cycle(rt)
		t.Logf("at %.2f of the working set: %.2f nodes served per request on the third cycle", tc.share, got)
		if got < tc.min {
			t.Errorf("at %.2f of the working set a request is served %.2f nodes on the third cycle, want >= %.1f", tc.share, got, tc.min)
		}
	}
}
