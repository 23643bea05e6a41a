package server

import (
	"context"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
)

// mutatingAdapter wraps an adapter and fires a hook in the middle of every
// Execute — the deterministic stand-in for "another client wrote to a store
// while this query was executing".
type mutatingAdapter struct {
	adapter.Adapter
	hook func()
}

func (m *mutatingAdapter) Execute(ctx context.Context, n *ir.Node, in []adapter.Value) (adapter.Value, adapter.ExecInfo, error) {
	m.hook()
	return m.Adapter.Execute(ctx, n, in)
}

// DataVersion forwards so the wrapper still looks like a versioned store.
func (m *mutatingAdapter) DataVersion() uint64 {
	return m.Adapter.(adapter.DataVersioner).DataVersion()
}

// TestPublishGuardIgnoresUnrelatedWrites: the subplan cache's publication
// guard re-checks the version vector of the stores a subtree touches, not
// the global sum, so a write to an unrelated store during execution does not
// discard a just-computed result — while a write to a touched store still
// does, and the next repeat executes instead of being answered stale.
func TestPublishGuardIgnoresUnrelatedWrites(t *testing.T) {
	run := func(t *testing.T, mutateTouched bool) (published, skipped int64) {
		t.Helper()
		store := relational.NewStore("db")
		t1, err := store.CreateTable("t1", cast.MustSchema(cast.Column{Name: "a", Type: cast.Int64}))
		if err != nil {
			t.Fatal(err)
		}
		other := kvstore.New("kv-b")
		rt := core.NewRuntime(hw.NewHostCPU())
		hook := func() { other.Put("other/2", []byte("mid-exec")) }
		if mutateTouched {
			hook = func() { _ = t1.Insert(int64(7)) }
		}
		rt.Register(&mutatingAdapter{Adapter: adapter.NewRelational("db", relational.NewEngine(store)), hook: hook})
		rt.Register(adapter.NewKV("kv-b", other))

		s := New(rt, compiler.Options{}, Config{})
		prog := eide.NewProgram()
		if _, err := prog.SQL("db", "SELECT a FROM t1 WHERE a > 0"); err != nil {
			t.Fatal(err)
		}
		g := prog.Graph()
		p := &preparedQuery{graph: g, binds: g.Binds(), planKey: compiler.Key(g, s.opts)}
		if _, _, _, err := s.executeOnce(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
		return statValue(t, s, "subplan_cache_published"), statValue(t, s, "subplan_cache_stale_skips")
	}

	if published, skipped := run(t, false); published == 0 || skipped != 0 {
		t.Fatalf("write to an UNTOUCHED store mid-execution: %d published, %d skipped (guard still global?)", published, skipped)
	}
	if published, skipped := run(t, true); published != 0 || skipped == 0 {
		t.Fatalf("write to a TOUCHED store mid-execution: %d published, %d skipped; want the publication suppressed", published, skipped)
	}
}

type twoTables struct {
	t1, t2 *relational.Table
}

// newTwoTableRuntime registers one relational engine "db" holding two
// independent tables.
func newTwoTableRuntime(t *testing.T) (*core.Runtime, twoTables) {
	t.Helper()
	store := relational.NewStore("db")
	t1, err := store.CreateTable("t1", cast.MustSchema(cast.Column{Name: "a", Type: cast.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := store.CreateTable("t2", cast.MustSchema(cast.Column{Name: "b", Type: cast.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	return rt, twoTables{t1: t1, t2: t2}
}

// TestVersionVectorScopedToTables checks relational vectors move only when a
// touched table mutates.
func TestVersionVectorScopedToTables(t *testing.T) {
	rt, data := newTwoTableRuntime(t)
	prog := eide.NewProgram()
	if _, err := prog.SQL("db", "SELECT a FROM t1"); err != nil {
		t.Fatal(err)
	}
	touches := compiler.TouchesOf(prog.Graph())
	v0 := rt.VersionVector(touches)

	// Mutating the untouched table must not move the vector.
	if err := data.t2.Insert(int64(1)); err != nil {
		t.Fatal(err)
	}
	if v1 := rt.VersionVector(touches); v1 != v0 {
		t.Fatalf("vector moved on untouched-table write: %q -> %q", v0, v1)
	}
	// Mutating the touched table must.
	if err := data.t1.Insert(int64(2)); err != nil {
		t.Fatal(err)
	}
	if v2 := rt.VersionVector(touches); v2 == v0 {
		t.Fatalf("vector did not move on touched-table write: %q", v2)
	}
}
