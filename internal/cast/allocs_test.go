//go:build !race

package cast

import "testing"

// Allocation budgets live apart from the race runs: the race runtime
// allocates on its own account and would blur the counts.

// TestSortByAllocBudget: sorting allocates the comparators, the row-index
// vector and the output batch — nothing per row, whatever the row count.
func TestSortByAllocBudget(t *testing.T) {
	b := NewBatch(MustSchema(Column{Name: "k", Type: Float64}, Column{Name: "id", Type: Int64}), 10_000)
	for i := 0; i < 10_000; i++ {
		if err := b.AppendRow(float64((i*7919)%1000), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.SortBy(SortKey{Col: "k", Desc: true}, SortKey{Col: "id"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("SortBy of 10k rows: %.0f allocations, budget 8", allocs)
	}
}
