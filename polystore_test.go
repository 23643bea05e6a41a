package polystore

import (
	"context"
	"math/rand"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/migrate"
	"polystorepp/internal/relational"
)

func clinicalSystem(t testing.TB, n int, accel bool) (*System, *datagen.Clinical) {
	t.Helper()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(42)), n)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithClinical(data), WithSeed(7)}
	if accel {
		opts = append(opts, WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	}
	return New(opts...), data
}

func TestRunSimpleSQLProgram(t *testing.T) {
	sys, _ := clinicalSystem(t, 100, false)
	p := sys.NewProgram()
	if _, err := p.SQL("db-clinical", "SELECT pid, age FROM patients WHERE age > 50 ORDER BY age DESC LIMIT 10"); err != nil {
		t.Fatal(err)
	}
	res, rep, err := sys.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	out := res.First().Batch
	if out == nil || out.Rows() != 10 {
		t.Fatalf("rows = %v", out)
	}
	ages, _ := out.Ints(1)
	for i := 1; i < len(ages); i++ {
		if ages[i-1] < ages[i] {
			t.Fatal("not descending")
		}
	}
	if rep.Latency <= 0 || rep.Wall <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRunClinicalPipelineEndToEnd(t *testing.T) {
	sys, data := clinicalSystem(t, 150, true)
	p := sys.NewProgram()
	pred, err := eide.BuildClinicalPipeline(p, data.Binding())
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := sys.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Values[pred].Batch
	if out == nil || out.Rows() == 0 {
		t.Fatal("no predictions")
	}
	probs, err := out.Floats(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probs {
		if pr < 0 || pr > 1 {
			t.Fatalf("probability %v out of range", pr)
		}
	}
	if rep.Migrations == 0 {
		t.Fatal("cross-engine program should migrate data")
	}
	if rep.Latency <= 0 || rep.Energy <= 0 {
		t.Fatalf("missing simulated cost: %+v", rep)
	}
	_ = data
}

// bigSortStore builds a store with one n-row table worth offloading.
func bigSortStore(t testing.TB, n int) *relational.Store {
	t.Helper()
	s := relational.NewStore("db-big")
	schema := cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "val", Type: cast.Int64},
	)
	tb, err := s.CreateTable("big", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := cast.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), rng.Int63n(1<<40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAccelerationReducesSimulatedLatency(t *testing.T) {
	ctx := context.Background()
	const rows = 300_000
	run := func(accel bool) float64 {
		opts := []Option{WithRelational("db-big", bigSortStore(t, rows))}
		if accel {
			opts = append(opts, WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU()))
		}
		sys := New(opts...)
		p := sys.NewProgram()
		if _, err := p.SQL("db-big", "SELECT id, val FROM big ORDER BY val"); err != nil {
			t.Fatal(err)
		}
		res, rep, err := sys.RunWith(ctx, p, Options{Level: 3, Accel: accel})
		if err != nil {
			t.Fatal(err)
		}
		out := res.First().Batch
		vals, err := out.Ints(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i-1] > vals[i] {
				t.Fatal("output not sorted")
			}
		}
		return rep.Latency
	}
	plain := run(false)
	accel := run(true)
	if accel >= plain {
		t.Fatalf("acceleration did not help: %v >= %v", accel, plain)
	}
	// The FPGA sort-kernel win should be a real factor, not noise.
	if plain/accel < 1.3 {
		t.Fatalf("speedup only %.2fx", plain/accel)
	}
}

func TestOptimizationLevelsOrdering(t *testing.T) {
	ctx := context.Background()
	run := func(level int, tr migrate.Transport) float64 {
		sys, _ := clinicalSystem(t, 300, false)
		p := sys.NewProgram()
		q, err := p.SQL("db-clinical", "SELECT pid FROM patients")
		if err != nil {
			t.Fatal(err)
		}
		// Cross-engine consumer: project goes through the ML engine,
		// forcing a migration the optimizer can shrink.
		p.KMeans("ml", q, []string{"pid"}, 2, 3)
		_, rep, err := sys.RunWith(ctx, p, Options{Level: level, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Latency
	}
	l0 := run(0, migrate.CSV)
	l3 := run(3, migrate.Pipe)
	if l3 >= l0 {
		t.Fatalf("L3 (%v) should beat L0 (%v)", l3, l0)
	}
}

func TestResultsAgreeAcrossOptLevels(t *testing.T) {
	ctx := context.Background()
	var outputs []int64
	for _, level := range []int{0, 1, 3} {
		sys, _ := clinicalSystem(t, 120, level == 3)
		p := sys.NewProgram()
		if _, err := p.SQL("db-clinical",
			"SELECT pid, icu_hours FROM stays WHERE icu_hours > 24 ORDER BY pid LIMIT 500"); err != nil {
			t.Fatal(err)
		}
		res, _, err := sys.RunWith(ctx, p, Options{Level: level, Accel: level == 3})
		if err != nil {
			t.Fatal(err)
		}
		out := res.First().Batch
		if out == nil {
			t.Fatal("no output")
		}
		var sum int64
		ids, err := out.Ints(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ids {
			sum += v
		}
		outputs = append(outputs, sum+int64(out.Rows())<<32)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("optimization level changed results: %v", outputs)
		}
	}
}

func TestNLTranslator(t *testing.T) {
	sys, data := clinicalSystem(t, 60, false)
	tr := sys.NLTranslator(data.Binding())

	p, rule, err := tr.Translate("How many patients are there?")
	if err != nil || rule != "count-rows" {
		t.Fatalf("rule = %q, %v", rule, err)
	}
	res, _, err := sys.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.First().Batch.Ints(0)
	if err != nil || n[0] != 60 {
		t.Fatalf("count = %v, %v", n, err)
	}

	// The Figure 2 query routes to the clinical pipeline.
	p2, rule2, err := tr.Translate("Will patients have a long stay at the hospital when they exit the ICU?")
	if err != nil || rule2 != "icu-long-stay" {
		t.Fatalf("rule = %q, %v", rule2, err)
	}
	res2, _, err := sys.Run(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.First().Batch == nil || res2.First().Batch.Rows() == 0 {
		t.Fatal("clinical pipeline produced nothing")
	}

	if _, _, err := tr.Translate("untranslatable gibberish"); err == nil {
		t.Fatal("gibberish should not translate")
	}
}

func TestCompileErrorSurface(t *testing.T) {
	sys, _ := clinicalSystem(t, 10, false)
	p := sys.NewProgram()
	if _, err := p.SQL("db-clinical", "SELEC broken"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	// Unknown engine fails at execution.
	if _, err := p.SQL("ghost-engine", "SELECT pid FROM patients"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Run(context.Background(), p); err == nil {
		t.Fatal("unknown engine should fail at run")
	}
	_ = compiler.Options{}
}

func TestContextCancellation(t *testing.T) {
	sys, _ := clinicalSystem(t, 50, false)
	p := sys.NewProgram()
	if _, err := p.SQL("db-clinical", "SELECT pid FROM patients"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sys.Run(ctx, p); err == nil {
		t.Fatal("cancelled context should abort")
	}
}
