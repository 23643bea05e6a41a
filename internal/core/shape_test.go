package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// withBinds is a copy of the shared plan that executes with binds, as the
// server binds one.
func withBinds(plan *compiler.Plan, binds []any) *compiler.Plan {
	bound := *plan
	bound.Binds = binds
	return &bound
}

// shapeFamilies returns families of statements, each of one shape and at
// least three literal sets: bench/'s similar_family, cold_analytic and
// stream_scan templates over loweringStore's events, and statements drawn
// by generateStatement with their integers redrawn.
func shapeFamilies(rng *rand.Rand) [][]string {
	var fams [][]string
	family := func(tmpl string, args ...[]any) {
		var fam []string
		for _, a := range args {
			fam = append(fam, fmt.Sprintf(tmpl, a...))
		}
		fams = append(fams, fam)
	}
	family("SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC, id LIMIT %d",
		[]any{7, 12}, []any{3, 1}, []any{7, 5}, []any{31, 64})
	for _, tmpl := range []string{
		"SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= %d GROUP BY kind",
		"SELECT id, value FROM events WHERE id >= %d ORDER BY value DESC, id LIMIT 50",
		"SELECT age, count(*) AS n FROM events JOIN patients ON kind = pid WHERE id >= %d GROUP BY age",
		"SELECT count(*) AS n, min(value) AS lo, max(value) AS hi, sum(value) AS total FROM events WHERE id < %d",
		"SELECT * FROM events WHERE id >= %d",
	} {
		family(tmpl, []any{700}, []any{0}, []any{1999}, []any{1234})
	}
	number := regexp.MustCompile(`\b\d+\b`)
	for len(fams) < 30 {
		sql := generateStatement(rng)
		if !number.MatchString(sql) {
			continue // no literal: a family of one statement
		}
		fam := []string{sql}
		for len(fam) < 4 {
			fam = append(fam, number.ReplaceAllStringFunc(sql, func(lit string) string {
				v, _ := strconv.Atoi(lit)
				return strconv.Itoa(rng.Intn(2*v + 2))
			}))
		}
		fams = append(fams, fam)
	}
	return fams
}

// TestShapePlanEqualsNative serves each family through one plan: every
// statement after a family's first is a plan-cache hit, so it executes the
// shape compiled for the first one, bound to its own constants. With the
// subplan cache on — cold, then warm — every answer must be Engine.Query's,
// which parses the statement with its literals in place. Keys that dropped
// the constants would serve one family member another's intermediates, and
// fail here.
func TestShapePlanEqualsNative(t *testing.T) {
	store := loweringStore(t)
	engine := relational.NewEngine(store)
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", engine))
	ctx := context.Background()
	opts := compiler.Options{Level: 3, Accel: true}
	fams := shapeFamilies(rand.New(rand.NewSource(43)))
	cache := compiler.NewPlanCache(128)
	for _, fam := range fams {
		for i, sql := range fam {
			want, _, err := engine.Query(ctx, sql)
			if err != nil {
				t.Fatalf("%s: native: %v", sql, err)
			}
			ordered := strings.Contains(sql, "ORDER BY")
			p := eide.NewProgram()
			if _, err := p.SQL("db", sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			plan, hit, err := cache.GetOrCompileKeyed(compiler.Key(p.Graph(), opts), p.Graph(), opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if i > 0 && !hit {
				t.Fatalf("%s: plan-cache miss: the family is not one shape", sql)
			}
			for round := 0; round < 2; round++ {
				res, _, err := rt.Execute(ctx, plan)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				got := res.First().Batch
				if !got.Schema().Equal(want.Schema()) {
					t.Fatalf("%s: schema %s, native %s", sql, got.Schema(), want.Schema())
				}
				if d := firstDiff(rowsOf(t, got, ordered), rowsOf(t, want, ordered)); d >= 0 {
					t.Fatalf("%s round %d: %d rows, native %d; first difference at row %d",
						sql, round, got.Rows(), want.Rows(), d)
				}
			}
		}
	}
	if rt.st.subplanHits.Value() == 0 {
		t.Fatal("no subplan hit: the warm rounds tested nothing")
	}
}

// TestShortBindVectorFails: a plan executed with fewer constants than it
// has slots, or a constant of the wrong type, fails with ErrUnbound before
// any node runs.
func TestShortBindVectorFails(t *testing.T) {
	rt := NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(loweringStore(t))))
	p := eide.NewProgram()
	if _, err := p.SQL("db", "SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := rt.Execute(ctx, plan); err != nil {
		t.Fatal(err)
	}
	for _, binds := range [][]any{nil, plan.Binds[:1], {"three", int64(5)}} {
		_, _, err := rt.Execute(ctx, withBinds(plan, binds))
		if !errors.Is(err, relational.ErrUnbound) || !errors.Is(err, ErrExec) {
			t.Fatalf("binds %v: %v, want ErrExec and relational.ErrUnbound", binds, err)
		}
	}
}
