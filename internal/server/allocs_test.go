//go:build !race

package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// discardResponse is a ResponseWriter that keeps nothing, so what the test
// counts is the stream's own allocation. (The race runtime allocates on its
// own account, hence the build tag.)
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Flush()                      {}

// TestEmitBatchAllocBudget: a batch leaves as one pooled buffer, one Write
// and one Flush per record — nothing per row, nothing per cell. A 1024-row
// batch is one record, a 3000-row batch three, and the budget grows with
// the records, not the rows.
func TestEmitBatchAllocBudget(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	for _, tc := range []struct{ rows, records int }{{1024, 1}, {3000, 3}} {
		b := cast.NewBatch(cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64},
			cast.Column{Name: "value", Type: cast.Float64}, cast.Column{Name: "tag", Type: cast.String}), tc.rows)
		for i := 0; i < tc.rows; i++ {
			if err := b.AppendRow(int64(i), float64(i)/8, "t"); err != nil {
				t.Fatal(err)
			}
		}
		st := newNDJSONStream(context.Background(), s, discardResponse{h: http.Header{}}, 1<<30, time.Now(), time.Minute)
		if err := st.StartStream(b.Schema()); err != nil {
			t.Fatal(err)
		}
		batches, rows := s.st.streamBatches.Value(), s.st.streamRows.Value()
		if allocs := testing.AllocsPerRun(20, func() {
			if err := st.EmitBatch(b); err != nil {
				t.Fatal(err)
			}
		}); allocs > float64(4*tc.records) {
			t.Fatalf("EmitBatch of %d rows: %.0f allocations, budget %d", tc.rows, allocs, 4*tc.records)
		}
		// AllocsPerRun makes one warm-up call beyond the 20 it measures.
		if got := s.st.streamBatches.Value() - batches; got != int64(21*tc.records) {
			t.Fatalf("%d rows went out in %d records over 21 calls, want %d each", tc.rows, got, tc.records)
		}
		if got := s.st.streamRows.Value() - rows; got != int64(21*tc.rows) {
			t.Fatalf("stream_rows grew by %d over 21 calls of %d rows", got, tc.rows)
		}
	}
}

// TestPrepareShapeHitAllocBudget: a SQL statement whose shape was compiled
// before is lexed once and keyed, and its shape key hands it the plan, plan
// key and touches — no parse, no IR build, no fingerprint, no touch analysis,
// no plan copy — and the key is built in the pooled preamble's buffer and
// probed as bytes, its constants lexed into the preamble's bind array, so
// preparing it, everything after the body is decoded, takes 1 allocation,
// its version vector (2 while each bind vector was allocated, 3 while the
// key was copied into a string, 122 when every statement was parsed, built
// and fingerprinted).
func TestPrepareShapeHitAllocBudget(t *testing.T) {
	store := relational.NewStore("db")
	if _, err := store.CreateTable("events", cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64}, cast.Column{Name: "value", Type: cast.Float64})); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	s := New(rt, compiler.Options{Level: 3, Accel: true}, Config{DefaultSQLEngine: "db"})
	ts := s.tenants.state("")
	var reqs []QueryRequest
	for kind := 0; kind < 32; kind++ {
		reqs = append(reqs, QueryRequest{Frontend: "sql", Statement: fmt.Sprintf(
			"SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d", kind, 1+kind%64)})
	}
	i := 0
	prepare := func() {
		p := pooled(reqs[i%len(reqs)], ts.id)
		i++
		if err := s.prepare(p); err != nil {
			t.Fatal(err)
		}
		p.release()
	}
	// The shape's first statement is parsed, compiled and run.
	p := &preparedQuery{req: reqs[0], tenant: ts.id}
	if err := s.prepare(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.runQuery(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, prepare); allocs > 1 {
		t.Fatalf("preparing a statement of a compiled shape: %.0f allocations, budget 1", allocs)
	}
	if hits := s.st.planHits.Value(); hits < 200 {
		t.Fatalf("plan_cache_hits = %d, want every statement after the first", hits)
	}
}

// TestPrepareProgramShapeHitAllocBudget: a cross_engine program whose shape
// was compiled before is keyed in one pass over its steps — each SQL step
// lexed once — and its program shape key hands it the plan, plan key and
// touches: no parse, no IR build, no engine check, no fingerprint, no touch
// analysis. The key is built in the pooled preamble's buffer and probed as
// bytes, the constants lexed into its bind array, so preparing it,
// everything after the body is decoded, takes 1 allocation, its version
// vector (2 while each bind vector was allocated, 3 while the key was copied
// into a string, 282 when every program was built and fingerprinted).
func TestPrepareProgramShapeHitAllocBudget(t *testing.T) {
	s, reqs := programServer(t)
	ts := s.tenants.state("")
	i := 0
	prepare := func() {
		p := pooled(reqs[i%len(reqs)], ts.id)
		i++
		if err := s.prepare(p); err != nil {
			t.Fatal(err)
		}
		p.release()
	}
	if allocs := testing.AllocsPerRun(200, prepare); allocs > 1 {
		t.Fatalf("preparing a program of a compiled shape: %.0f allocations, budget 1", allocs)
	}
	if hits := s.st.planHits.Value(); hits < 200 {
		t.Fatalf("plan_cache_hits = %d, want every program after the first", hits)
	}
}
