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
		if _, err := b.SortBy(-1, SortKey{Col: "k", Desc: true}, SortKey{Col: "id"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("SortBy of 10k rows: %.0f allocations, budget 8", allocs)
	}
}

// TestAppendJSONRowsAllocBudget: encoding into a buffer that already has the
// room allocates nothing — no cell is boxed, no row slice built.
func TestAppendJSONRowsAllocBudget(t *testing.T) {
	b := NewBatch(testSchema(t), 1024)
	for i := 0; i < 1024; i++ {
		if err := b.AppendRow(int64(i), float64(i)/8, "row <"+string(rune('a'+i%26))+">", i%2 == 0, int64(i)*1e9); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := b.AppendJSONRows(nil, 0, b.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if buf, err = b.AppendJSONRows(buf[:0], 0, b.Rows()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendJSONRows of 1024 rows into a sized buffer: %.0f allocations, want 0", allocs)
	}
}
