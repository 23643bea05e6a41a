//go:build !race

package relational

import (
	"context"
	"testing"

	"polystorepp/internal/cast"
)

// Allocation budgets live apart from the race runs: the race runtime
// allocates on its own account and would blur the counts.

func allocBatch(t testing.TB, n, groups int) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	), n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), int64((i*31)%groups), float64(i%97)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestFilterAllocBudget: a filter allocates the predicate's bool vector, the
// selection and the kept rows' columns — nothing per input row. (The kept
// rows are scattered, so this is the gather path, not the zero-copy run.)
func TestFilterAllocBudget(t *testing.T) {
	b := allocBatch(t, 10_000, 8)
	pred := Bin{Op: OpLt, L: ColRef{Name: "value"}, R: Const{V: 20.0}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := parFilter(context.Background(), b, pred, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("filter of 10k rows: %.0f allocations, budget 16", allocs)
	}
}

// TestGroupByAllocBudget: an int64-keyed group-by allocates per group (map
// and state growth), never per row.
func TestGroupByAllocBudget(t *testing.T) {
	const groups = 64
	b := allocBatch(t, 10_000, groups)
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "value", As: "total"}, {Fn: AggMax, Col: "value", As: "hi"}}
	allocs := testing.AllocsPerRun(10, func() {
		op, err := NewGroupBy(&memSource{b: b}, []string{"kind"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		op.Parts = 1
		if out, err := Run(context.Background(), op); err != nil || out.Rows() != groups {
			t.Fatalf("group-by: %v", err)
		}
	})
	if allocs > groups+16 {
		t.Fatalf("group-by of 10k rows into %d groups: %.0f allocations, budget %d", groups, allocs, groups+16)
	}
}
