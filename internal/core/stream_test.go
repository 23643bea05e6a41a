package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// collectSink records everything a streamed execution delivers.
type collectSink struct {
	node     ir.NodeID
	schema   cast.Schema
	started  bool
	starts   int
	batches  []*cast.Batch
	rows     int
	batchErr error // returned from EmitBatch when set
}

func (c *collectSink) StartStream(node ir.NodeID, schema cast.Schema) error {
	c.node, c.schema, c.started = node, schema, true
	c.starts++
	return nil
}

func (c *collectSink) EmitBatch(_ ir.NodeID, b *cast.Batch) error {
	if c.batchErr != nil {
		return c.batchErr
	}
	c.batches = append(c.batches, b.Clone()) // batches may be storage views
	c.rows += b.Rows()
	return nil
}

// concat glues the collected batches back together.
func (c *collectSink) concat(t *testing.T) *cast.Batch {
	t.Helper()
	out := cast.NewBatch(c.schema, c.rows)
	for _, b := range c.batches {
		if err := out.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestExecuteStreamEqualsExecute pins the tentpole invariant across every
// relational terminal kind the streaming path special-cases: the streamed
// batch concatenation equals the buffered result, and Results/Report match.
func TestExecuteStreamEqualsExecute(t *testing.T) {
	pred := relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(300)}}
	progs := map[string]func() *ir.Graph{
		"scan": func() *ir.Graph {
			g := ir.NewGraph()
			g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
			return g
		},
		"filter": func() *ir.Graph {
			g := ir.NewGraph()
			scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
			g.Add(ir.OpFilter, "db", map[string]any{"pred": pred}, scan)
			return g
		},
		"project": func() *ir.Graph {
			g := ir.NewGraph()
			scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
			g.Add(ir.OpProject, "db", map[string]any{"items": []relational.ProjItem{
				{E: relational.ColRef{Name: "id"}, Name: "id"},
				{E: relational.Bin{Op: relational.OpMul, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(2)}}, Name: "v2"},
			}}, scan)
			return g
		},
		"join": func() *ir.Graph {
			g := ir.NewGraph()
			l := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
			r := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
			// Rename the build side so the self-join's output schema has no
			// duplicate columns.
			rp := g.Add(ir.OpProject, "db", map[string]any{"items": []relational.ProjItem{
				{E: relational.ColRef{Name: "id"}, Name: "rid"},
				{E: relational.ColRef{Name: "v"}, Name: "rv"},
			}}, r)
			g.Add(ir.OpHashJoin, "db", map[string]any{"left_col": "v", "right_col": "rv"}, l, rp)
			return g
		},
		"sort": sortProgram,
		"wide": func() *ir.Graph { return fanoutProgram(4) },
	}
	for name, build := range progs {
		t.Run(name, func(t *testing.T) {
			rt := testRuntime(t, 5000, false)
			plan, err := compiler.Compile(build(), compiler.Options{Level: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := rt.Execute(askRows(context.Background()), plan)
			if err != nil {
				t.Fatal(err)
			}
			sink := &collectSink{}
			sres, srep, err := rt.ExecuteStream(context.Background(), plan, sink)
			if err != nil {
				t.Fatal(err)
			}
			want := res.First().Batch
			if got := sres.First().Batch; !got.Equal(want) {
				t.Fatal("streamed Results differ from buffered Results")
			}
			if !sink.started {
				t.Fatal("sink never started")
			}
			if sink.starts != 1 {
				t.Fatalf("StartStream called %d times", sink.starts)
			}
			if sink.node != plan.Graph.Sinks()[0] {
				t.Fatalf("streamed node %d, want first sink %d", sink.node, plan.Graph.Sinks()[0])
			}
			if !sink.schema.Equal(want.Schema()) {
				t.Fatalf("schema = %s, want %s", sink.schema, want.Schema())
			}
			if got := sink.concat(t); !got.Equal(want) {
				t.Fatalf("streamed concatenation (%d rows) differs from buffered result (%d rows)", got.Rows(), want.Rows())
			}
			if srep.Latency != rep.Latency || srep.Energy != rep.Energy || len(srep.Nodes) != len(rep.Nodes) {
				t.Fatalf("streamed report differs: latency %v vs %v, energy %v vs %v, nodes %d vs %d",
					srep.Latency, rep.Latency, srep.Energy, rep.Energy, len(srep.Nodes), len(rep.Nodes))
			}
		})
	}
}

// TestExecuteStreamEmptyResultAnnouncesSchema: a query with zero output rows
// still announces its schema (the NDJSON stream must carry a schema line
// whenever the buffered response would carry columns).
func TestExecuteStreamEmptyResultAnnouncesSchema(t *testing.T) {
	rt := testRuntime(t, 100, false)
	g := ir.NewGraph()
	scan := g.Add(ir.OpScan, "db", map[string]any{"table": "t"})
	pred := relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "v"}, R: relational.Const{V: int64(1 << 40)}}
	g.Add(ir.OpFilter, "db", map[string]any{"pred": pred}, scan)
	plan, err := compiler.Compile(g, compiler.Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	res, _, err := rt.ExecuteStream(context.Background(), plan, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.First().Batch.Rows() != 0 {
		t.Fatal("expected empty result")
	}
	if !sink.started || len(sink.batches) != 0 {
		t.Fatalf("empty result: started=%v batches=%d, want schema-only stream", sink.started, len(sink.batches))
	}
	if !sink.schema.Has("v") {
		t.Fatalf("announced schema = %s", sink.schema)
	}
}

// TestExecuteStreamSinkErrorAborts: a failing sink fails the call with its
// error instead of silently completing.
func TestExecuteStreamSinkErrorAborts(t *testing.T) {
	rt := testRuntime(t, 5000, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("client hung up")
	sink := &collectSink{batchErr: boom}
	if _, _, err := rt.ExecuteStream(context.Background(), plan, sink); !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

// TestExecuteStreamNilSinkIsExecute: a nil sink degrades to the buffered
// path without panicking.
func TestExecuteStreamNilSinkIsExecute(t *testing.T) {
	rt := testRuntime(t, 500, false)
	plan, err := compiler.Compile(sortProgram(), compiler.Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := rt.ExecuteStream(context.Background(), plan, nil)
	if err != nil || res.First().Batch.Rows() != 500 {
		t.Fatalf("nil sink: res=%v err=%v", res, err)
	}
}
