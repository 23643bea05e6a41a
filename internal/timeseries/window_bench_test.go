package timeseries

import "testing"

// benchWindowStore builds a ~200k-point series (~390 chunks) so the
// per-chunk partial computation has real work per partition.
func benchWindowStore(b *testing.B) ([]*chunk, int64) {
	b.Helper()
	s := New("bench")
	const n = 200_000
	for i := 0; i < n; i++ {
		if err := s.Append("m", int64(i)*10, float64(i%1009)*0.25); err != nil {
			b.Fatal(err)
		}
	}
	s.mu.RLock()
	chunks := append([]*chunk(nil), s.series["m"].chunks...)
	s.mu.RUnlock()
	return chunks, n * 10
}

func benchWindow(b *testing.B, parts int) {
	chunks, span := benchWindowStore(b)
	width := span / 128 // ~128 buckets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := windowChunks(chunks, 0, span, width, parts); len(got) == 0 {
			b.Fatal("no windows")
		}
	}
}

// BenchmarkWindowSequential pins one partition — the pre-partitioning fold.
// Decoding each chunk into a point slice before folding it took 3.8-4.4 ms
// and 3.23 MB/op on 2 cores; walking the chunks in place, 1.9 ms and
// 31 KB/op.
func BenchmarkWindowSequential(b *testing.B) { benchWindow(b, 1) }

// BenchmarkWindowParallel lets the per-chunk partial computation fan out
// over the scan pool. On a single-core host the pool has one slot, Auto
// picks one partition, and this tracks BenchmarkWindowSequential
// (inline-fallback parity); the speedup engages on multi-core hosts.
func BenchmarkWindowParallel(b *testing.B) { benchWindow(b, 0) }
