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

// TestPublishGuardIgnoresUnrelatedWrites is the ISSUE's satellite fix: the
// result cache's mid-execution mutation guard must compare the
// touched-engine version vector, not the global sum, so a write to an
// unrelated store during execution no longer discards a just-computed
// cacheable result — while a write to a touched store still does.
func TestPublishGuardIgnoresUnrelatedWrites(t *testing.T) {
	run := func(t *testing.T, mutateTouched bool) bool {
		t.Helper()
		storeA := kvstore.New("kv-a")
		storeB := kvstore.New("kv-b")
		storeA.Put("user/1", []byte("x"))
		storeB.Put("other/1", []byte("y"))

		rt := core.NewRuntime(hw.NewHostCPU())
		var hook func()
		rt.Register(&mutatingAdapter{
			Adapter: adapter.NewKV("kv-a", storeA),
			hook:    func() { hook() },
		})
		rt.Register(adapter.NewKV("kv-b", storeB))
		if mutateTouched {
			hook = func() { storeA.Put("user/2", []byte("mid-exec")) }
		} else {
			hook = func() { storeB.Put("other/2", []byte("mid-exec")) }
		}

		s := New(rt, compiler.Options{}, Config{})
		prog := eide.NewProgram()
		prog.KVScan("kv-a", "user/")
		g := prog.Graph()
		p := &preparedQuery{graph: g}
		p.planKey = compiler.Key(g, s.opts)
		p.touches = compiler.TouchesOf(g)
		p.vv = s.rt.VersionVector(p.touches)
		p.resKey = p.planKey + "|" + p.vv

		if _, _, _, err := s.executeOnce(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		_, published := s.results.Get(p.resKey)
		return published
	}

	if published := run(t, false); !published {
		t.Fatal("write to an UNTOUCHED store mid-execution discarded the result (guard still global?)")
	}
	if published := run(t, true); published {
		t.Fatal("write to a TOUCHED store mid-execution must suppress publication")
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
