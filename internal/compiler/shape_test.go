package compiler_test

import (
	"fmt"
	"slices"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
)

func lowered(t testing.TB, sql string) *ir.Graph {
	t.Helper()
	p := eide.NewProgram()
	if _, err := p.SQL("db", sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return p.Graph()
}

// subtreeKey is a subtree's content address less the version vector: its
// fingerprint and the constants bound to its holes.
func subtreeKey(st compiler.Subtree, binds []any) string {
	b := []byte(st.Fingerprint + "|")
	for _, s := range st.Slots {
		b = ir.AppendBind(b, binds[s])
	}
	return string(b)
}

// TestShapeKeySeparatesTypesNotConstants: statements differing only in
// their constants share the plan-cache key; a literal of another type is
// another shape.
func TestShapeKeySeparatesTypesNotConstants(t *testing.T) {
	opts := compiler.Options{Level: 3, Accel: true}
	key := func(sql string) string { return compiler.Key(lowered(t, sql), opts) }
	base := key("SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC LIMIT 5")
	if other := key("SELECT id, value FROM events WHERE kind = 17 ORDER BY value DESC LIMIT 64"); other != base {
		t.Fatal("other constants changed the shape key")
	}
	for _, sql := range []string{
		"SELECT id, value FROM events WHERE kind = 'a' ORDER BY value DESC LIMIT 5",
		"SELECT id, value FROM events WHERE kind = 3.5 ORDER BY value DESC LIMIT 5",
		"SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC",
	} {
		if key(sql) == base {
			t.Errorf("%s: shares the shape key of kind = 3 ... LIMIT 5", sql)
		}
	}
}

// TestSubtreeKeyIgnoresSlotNumbering: the scan -> filter prefix of two
// statements is one subtree however their literals are numbered — slot 0 in
// one, slot 2 behind two select-list literals in the other — and the
// constants bound there, not the slots, separate its cache entries.
func TestSubtreeKeyIgnoresSlotNumbering(t *testing.T) {
	compile := func(sql string) *compiler.Plan {
		t.Helper()
		plan, err := compiler.Compile(lowered(t, sql), compiler.Options{Level: 3})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	prefix := func(p *compiler.Plan) compiler.Subtree {
		t.Helper()
		for _, st := range p.Subtrees {
			if p.Graph.MustNode(st.Root).Kind == ir.OpFilter {
				return st
			}
		}
		t.Fatal("no candidate rooted at the filter")
		return compiler.Subtree{}
	}
	a := compile("SELECT id, value FROM events WHERE kind = 3 ORDER BY value DESC LIMIT 5")
	b := compile("SELECT id, value + 1 AS v1, 7 AS seven FROM events WHERE kind = 3 ORDER BY value DESC LIMIT 5")
	c := compile("SELECT id, value + 1 AS v1, 7 AS seven FROM events WHERE kind = 4 ORDER BY value DESC LIMIT 5")
	sa, sb, sc := prefix(a), prefix(b), prefix(c)
	// The index scan carries the filter's predicate (L2), so the prefix
	// holds the WHERE literal twice.
	if !slices.Equal(sa.Slots, []int{0, 0}) || !slices.Equal(sb.Slots, []int{2, 2}) {
		t.Fatalf("prefix slots %v and %v, want [0 0] and [2 2]", sa.Slots, sb.Slots)
	}
	if sa.Fingerprint != sb.Fingerprint {
		t.Fatal("the shared prefix fingerprints differently under other slot numbers")
	}
	if subtreeKey(sa, a.Binds) != subtreeKey(sb, b.Binds) {
		t.Fatal("the shared prefix with equal constants keys differently")
	}
	if subtreeKey(sb, b.Binds) == subtreeKey(sc, c.Binds) {
		t.Fatal("kind = 3 and kind = 4 share a prefix key")
	}
	// The sort holds the LIMIT's slot beside the limit (it keeps only that
	// many rows), so four nodes bind.
	if a.Slots != 2 || len(a.Bound) != 4 {
		t.Fatalf("plan holds %d slots in %d nodes, want 2 in 4 (index scan, filter, sort, limit)", a.Slots, len(a.Bound))
	}
}

var planSink *compiler.Plan

// BenchmarkPlanShapeHit is the serving path's price of a statement whose
// shape is compiled: eide build, compiler.Key and a plan-cache hit, for
// similar_family statements of 32 kinds and 64 LIMITs.
func BenchmarkPlanShapeHit(b *testing.B) {
	opts := compiler.Options{Level: 3, Accel: true}
	stmts := make([]string, 2048)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d", i%32, 1+i/32)
	}
	cache := compiler.NewPlanCache(128)
	g := lowered(b, stmts[0])
	if _, _, err := cache.GetOrCompileKeyed(compiler.Key(g, opts), g, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := eide.NewProgram()
		if _, err := p.SQL("db", stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
		plan, hit, err := cache.GetOrCompileKeyed(compiler.Key(p.Graph(), opts), p.Graph(), opts)
		if err != nil || !hit {
			b.Fatalf("hit=%t err=%v", hit, err)
		}
		planSink = plan
	}
}
