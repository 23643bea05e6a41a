//go:build !race

package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// Heap measurements live apart from the race runs: the race runtime shadows
// every allocation and would drown the figure.

// heapInuse returns the bytes in in-use heap spans after a full collection.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC() // a second cycle sweeps what the first one freed
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestCachedLimitResultsRetainWhatTheyCharge: the sink of … ORDER BY value
// DESC LIMIT 50 over a 50 000-row table is 50 rows of a sorted batch of tens
// of thousands. The result cache charges the 50; what it retains must be the
// 50, not the batch they were cut from. Fill the cache with the 256 such
// results it holds by default and compare the heap it keeps alive with what
// it says it holds. (Before cast.Batch.Compact the views pinned 154 MiB
// behind a charge of 200 KiB of payload.) The subplan cache is off so that
// what is measured is the result cache alone.
func TestCachedLimitResultsRetainWhatTheyCharge(t *testing.T) {
	const rows, entries = 50_000, 256
	store := relational.NewStore("db")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	rng, b := rand.New(rand.NewSource(7)), cast.NewBatch(events.Schema(), rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(int64(i), int64(i%97), float64(rng.Intn(8_000_000))/8); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU(), core.WithSubplanCacheBytes(-1))
	rt.Register(adapter.NewRelational("db", relational.NewEngine(store)))
	s := New(rt, compiler.Options{Level: 3}, Config{DefaultSQLEngine: "db"})

	query := func(k int) {
		body := fmt.Sprintf(`{"frontend":"sql","statement":"SELECT id, value FROM events WHERE id >= %d ORDER BY value DESC LIMIT 50"}`, k)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"row_count":50`) {
			t.Fatalf("k=%d: status %d: %.200s", k, rec.Code, rec.Body.String())
		}
	}
	query(rows / 2) // boot everything lazily built, and occupy one slot
	before := heapInuse()
	for i := 1; i < entries; i++ {
		query(i * (rows / 2) / entries)
	}
	retained := heapInuse() - before
	rc := s.results.Stats()
	charged := rc.Cost
	if rc.Entries != entries {
		t.Fatalf("the cache holds %d results, want %d", rc.Entries, entries)
	}
	// Beside the payload an entry keeps its Report (one record per plan node),
	// its key and its map and list cells: 16 KiB each is generous, and two
	// orders of magnitude under the ~600 KiB a pinned sort output weighs.
	const perEntry = 16 << 10
	if limit := charged + entries*perEntry; retained > limit {
		t.Fatalf("%d cached LIMIT 50 results keep %d KiB of heap alive; the cache charges %d KiB and %d KiB of bookkeeping is allowed",
			entries, retained>>10, charged>>10, (entries*perEntry)>>10)
	}
	t.Logf("%d cached results: charged %d B, heap retained %d KiB", entries, charged, retained>>10)
}
