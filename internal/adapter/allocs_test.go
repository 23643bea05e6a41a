//go:build !race

package adapter

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"polystorepp/internal/datagen"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// The allocation budget lives apart from the race runs: the race runtime
// allocates on its own account and would blur the count.

// TestIndexSeekAllocatesNoColumn: a pid range seek on the clinical patients
// table hands on the heap snapshot behind the B-tree's row-id list. Of 2 500
// patients 2 490 match: the list is 9 960 bytes, some 30 KiB with the arrays
// append outgrew while the tree was walked, and the batch header and the
// node's report are the rest — 35 544 bytes when this was written. One
// gathered int64 column would be another 20 480, and the table has four
// (copying them all, chunk by chunk, took 121 152).
func TestIndexSeekAllocatesNoColumn(t *testing.T) {
	ctx := context.Background()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(8)), 2500)
	if err != nil {
		t.Fatal(err)
	}
	a := NewRelational("db", relational.NewEngine(data.Relational))
	onPid := relational.Bin{Op: relational.OpGe, L: relational.ColRef{Name: "pid"}, R: relational.Const{V: int64(10)}}
	n := node(ir.OpIndexScan, "db", map[string]any{"table": "patients", "pred": onPid})
	seek := func() {
		v, info, err := a.Execute(ctx, n, nil)
		if err != nil || v.Rows() != 2490 || Native(n, info) != "IndexScan(patients.pid)" {
			t.Fatalf("%s returned %d rows: %v", Native(n, info), v.Rows(), err)
		}
	}
	seek() // warm lazily built state
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ { // the least of several: a runtime goroutine may allocate beside one
		runtime.ReadMemStats(&before)
		seek()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least < 9960 || least > 48<<10 {
		t.Fatalf("seek of 2490 rows allocated %d bytes, want the row-id list's 9960 and under 48 KiB in all", least)
	}
}
