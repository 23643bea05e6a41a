package relational

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"polystorepp/internal/cast"
)

// TestParseLiftedSlots: literals take slots in text order — the select list
// first, then WHERE, then LIMIT — after whatever the bind vector held.
func TestParseLiftedSlots(t *testing.T) {
	stmt, binds, err := ParseLifted(
		"SELECT id, value + 1 AS v1, 'x' AS tag FROM events WHERE kind = 3 AND value > 2.5 AND NOT flag = true ORDER BY value DESC LIMIT 5",
		[]any{"earlier"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []any{"earlier", int64(1), "x", int64(3), 2.5, true, int64(5)}; !reflect.DeepEqual(binds, want) {
		t.Fatalf("binds = %#v, want %#v", binds, want)
	}
	wantWhere := Bin{Op: OpAnd,
		L: Bin{Op: OpAnd,
			L: Bin{Op: OpEq, L: ColRef{Name: "kind"}, R: Param{Slot: 3, Type: cast.Int64}},
			R: Bin{Op: OpGt, L: ColRef{Name: "value"}, R: Param{Slot: 4, Type: cast.Float64}}},
		R: Not{E: Bin{Op: OpEq, L: ColRef{Name: "flag"}, R: Param{Slot: 5, Type: cast.Bool}}}}
	if !reflect.DeepEqual(stmt.Where, wantWhere) {
		t.Fatalf("where = %#v", stmt.Where)
	}
	if stmt.Items[2].Expr != (Param{Slot: 2, Type: cast.String}) {
		t.Fatalf("select-list literal = %#v", stmt.Items[2].Expr)
	}
	if stmt.Limit != 5 || stmt.LimitSlot != 6 {
		t.Fatalf("limit %d at slot %d, want 5 at 6", stmt.Limit, stmt.LimitSlot)
	}
	if lit, _ := Parse("SELECT a FROM t LIMIT 5"); lit.LimitSlot != -1 {
		t.Fatalf("Parse set LimitSlot %d", lit.LimitSlot)
	}
}

// TestParseLiftedBindsToParse: a lifted statement with its bind vector bound
// back is the statement Parse returns — step for step — so the served route
// evaluates what the native one does.
func TestParseLiftedBindsToParse(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t WHERE a >= 10",
		"SELECT a, b * 2 FROM t WHERE a < 3 OR b != 'q' ORDER BY a LIMIT 0",
		"SELECT a + 1.5, 7, NOT c FROM t WHERE NOT (a = -4 AND c = false)",
		"SELECT k, count(*) AS n FROM t JOIN u ON k = j WHERE k > 2 GROUP BY k",
		"SELECT a FROM t WHERE true LIMIT 9",
		"SELECT a FROM t WHERE (12)",
	} {
		lit, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		lifted, binds, err := ParseLifted(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, got := lit.Steps(nil), lifted.Steps(nil)
		for i := range got {
			if got[i].Pred != nil {
				if got[i].Pred, err = bindExpr(got[i].Pred, binds); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			if got[i].Items != nil {
				v, err := Bind(got[i].Items, binds)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				got[i].Items = v.([]ProjItem)
			}
			// The sort carries the LIMIT's slot too (it keeps only that many
			// rows), so both steps are bound back alike.
			if got[i].LimitSlot >= 0 && (got[i].Kind == StepLimit || got[i].Kind == StepSort) {
				if n, err := Bind(Param{Slot: got[i].LimitSlot, Type: cast.Int64}, binds); err != nil || n != int64(got[i].N) {
					t.Fatalf("%s: LIMIT slot binds %v (%v), want %d", sql, n, err, got[i].N)
				}
				got[i].LimitSlot = -1
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n bound %#v\n parse %#v", sql, got, want)
		}
	}
}

// TestUnboundParamFails: a Param evaluated, typed or bound without a constant
// of its type is ErrUnbound, never a zero.
func TestUnboundParamFails(t *testing.T) {
	users := newTestStore(t, 20).MustTable(t, "users").Snapshot()
	pred := Bin{Op: OpGt, L: ColRef{Name: "age"}, R: Param{Slot: 1, Type: cast.Int64}}
	if _, err := Filter(context.Background(), users, pred, 0); !errors.Is(err, ErrUnbound) {
		t.Fatalf("filter on an unbound param: %v", err)
	}
	items := []ProjItem{{E: Param{Slot: 0, Type: cast.String}, Name: "p"}}
	if _, err := ProjectSchema(users.Schema(), items); !errors.Is(err, ErrUnbound) {
		t.Fatalf("schema of an unbound param: %v", err)
	}
	for _, binds := range [][]any{nil, {int64(1)}, {int64(1), "forty"}} {
		if _, err := Bind(pred, binds); !errors.Is(err, ErrUnbound) {
			t.Fatalf("bind %v: %v", binds, err)
		}
	}
	bound, err := Bind(pred, []any{"unused", int64(40)})
	if err != nil {
		t.Fatal(err)
	}
	want := Bin{Op: OpGt, L: ColRef{Name: "age"}, R: Const{V: int64(40)}}
	if !reflect.DeepEqual(bound, want) {
		t.Fatalf("bound = %#v, want %#v", bound, want)
	}
}
