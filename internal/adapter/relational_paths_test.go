package adapter

import (
	"context"
	"math/rand"
	"testing"

	"polystorepp/internal/datagen"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// TestRelationalBufferedEqualsStreamed runs every relational op kind through
// Execute and pins its report's Native. There is one delivery path: a
// streamed response is cut into records from the value Execute returns,
// above the adapter, so a streamed filter, project or hash join reports
// exactly like a buffered one.
func TestRelationalBufferedEqualsStreamed(t *testing.T) {
	ctx := context.Background()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(8)), 2500)
	if err != nil {
		t.Fatal(err)
	}
	a := NewRelational("db", relational.NewEngine(data.Relational))
	run := func(kind ir.OpKind, attrs map[string]any, inputs ...Value) Value {
		t.Helper()
		v, _, err := a.Execute(ctx, node(kind, "db", attrs), inputs)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	patients := run(ir.OpScan, map[string]any{"table": "patients"})
	stays := run(ir.OpProject, map[string]any{"items": []relational.ProjItem{
		{E: relational.ColRef{Name: "pid"}, Name: "spid"},
		{E: relational.ColRef{Name: "icu_hours"}, Name: "icu_hours"},
	}}, run(ir.OpScan, map[string]any{"table": "stays"}))

	pred := relational.Bin{Op: relational.OpGt, L: relational.ColRef{Name: "age"}, R: relational.Const{V: int64(40)}}
	// pid carries the clinical dataset's only B-tree on patients; age has none.
	onPid := relational.Bin{Op: relational.OpGe, L: relational.ColRef{Name: "pid"}, R: relational.Const{V: int64(10)}}
	items := []relational.ProjItem{{E: relational.ColRef{Name: "pid"}, Name: "pid"}, {E: relational.ColRef{Name: "age"}, Name: "age"}}
	join := map[string]any{"left_col": "pid", "right_col": "spid"}
	group := map[string]any{"group_cols": []string{"pid"}, "aggs": []relational.AggSpec{{Fn: relational.AggCount, As: "n"}}}

	cases := []struct {
		name   string
		kind   ir.OpKind
		attrs  map[string]any
		inputs []Value
		native string // pinned when set
	}{
		{name: "scan", kind: ir.OpScan, attrs: map[string]any{"table": "patients"}},
		{name: "index-scan", kind: ir.OpIndexScan, attrs: map[string]any{"table": "patients", "pred": onPid}, native: "IndexScan(patients.pid)"},
		{name: "index-scan/no-index", kind: ir.OpIndexScan, attrs: map[string]any{"table": "patients", "pred": pred}, native: "SeqScan(patients)"},
		{name: "filter", kind: ir.OpFilter, attrs: map[string]any{"pred": pred}, inputs: []Value{patients}},
		{name: "project", kind: ir.OpProject, attrs: map[string]any{"items": items}, inputs: []Value{patients}},
		{name: "hash-join", kind: ir.OpHashJoin, attrs: join, inputs: []Value{patients, stays}},
		{name: "merge-join", kind: ir.OpMergeJoin, attrs: join, inputs: []Value{patients, stays}},
		{name: "sort", kind: ir.OpSort, attrs: map[string]any{"order_by": []relational.OrderItem{{Col: "age", Desc: true}, {Col: "pid"}}}, inputs: []Value{patients}},
		{name: "group-by", kind: ir.OpGroupBy, attrs: group, inputs: []Value{patients}},
		{name: "limit", kind: ir.OpLimit, attrs: map[string]any{"n": int64(2100)}, inputs: []Value{patients}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := node(tc.kind, "db", tc.attrs)
			got, info, err := a.Execute(ctx, n, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			native := Native(n, info)
			if native == "" || (tc.native != "" && native != tc.native) {
				t.Fatalf("ExecInfo = %+v, native %q", info, native)
			}
			// A scan that does not seek hands on the heap snapshot itself: the
			// table's columns, shared, whether or not a predicate was pushed.
			if native == "SeqScan(patients)" {
				x, _ := got.Batch.Ints(0)
				y, _ := patients.Batch.Ints(0)
				if &x[0] != &y[0] {
					t.Fatal("an unseekable scan copied the table instead of sharing the heap snapshot")
				}
			}
		})
	}
}
