package timeseries

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// TestRangeChunkPartitionEquivalence pins the chunk fan-out at 1/2/7/64 and
// checks every partitioning returns exactly the sequential decode — order,
// boundaries, and values.
func TestRangeChunkPartitionEquivalence(t *testing.T) {
	s := New("ts")
	const n = 20 * chunkSize // 20 chunks
	for i := 0; i < n; i++ {
		if err := s.Append("m", int64(i)*10, float64(i%1000)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	sr := s.series["m"]
	chunks := append([]*chunk(nil), sr.chunks...)
	s.mu.RUnlock()

	for _, span := range []struct{ from, to int64 }{
		{0, int64(n) * 10},        // everything
		{12345, 98765},            // interior, unaligned to chunks
		{-100, -1},                // before all data
		{int64(n) * 100, 1 << 60}, // after all data
		{5120, 5120},              // a single point
	} {
		want := rangeChunks(chunks, span.from, span.to, 1)
		for _, parts := range []int{2, 7, 64} {
			got := rangeChunks(chunks, span.from, span.to, parts)
			if len(got) != len(want) {
				t.Fatalf("span %+v parts=%d: %d points, want %d", span, parts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("span %+v parts=%d: point %d = %+v, want %+v", span, parts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRangeMatchesWindowAfterParallelDecode guards the WindowN path, which
// consumes Range output, against any reordering from the parallel decode.
func TestRangeMatchesWindowAfterParallelDecode(t *testing.T) {
	s := New("ts")
	const n = 8 * chunkSize
	var sum float64
	for i := 0; i < n; i++ {
		v := float64(i%17) * 0.25
		sum += v
		if err := s.Append("m", int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	wrs, err := s.WindowN("m", 0, n, int64(n), AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 1 || wrs[0].Value != sum/n || wrs[0].N != n {
		t.Fatalf("window = %+v, want one window mean=%v n=%d", wrs, sum/n, n)
	}
}

// flatWindow is the pre-partials reference implementation: bucket every
// in-range point into a map, then average each bucket's value list in point
// order — the sequential baseline the partial-based path must match.
func flatWindow(pts []Point, from, width int64) []WindowResult {
	byWindow := make(map[int64][]float64)
	for _, p := range pts {
		start := from + (p.TS-from)/width*width
		byWindow[start] = append(byWindow[start], p.Value)
	}
	starts := make([]int64, 0, len(byWindow))
	for st := range byWindow {
		starts = append(starts, st)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]WindowResult, 0, len(starts))
	for _, st := range starts {
		vals := byWindow[st]
		var v float64
		for _, x := range vals {
			v += x
		}
		out = append(out, WindowResult{Start: st, Value: v / float64(len(vals)), N: len(vals)})
	}
	return out
}

// TestWindowChunkPartitionEquivalence pins the window fan-out at 1/2/7/64
// and checks every partitioning produces byte-identical partials to the
// sequential (parts=1) chunk fold, and WindowN the same means — float sums
// included, since partials are per chunk and the fold is always in chunk
// order.
func TestWindowChunkPartitionEquivalence(t *testing.T) {
	s := New("ts")
	const n = 20 * chunkSize
	for i := 0; i < n; i++ {
		// 0.25 steps: sums are exactly representable, so even a reordered
		// fold would be caught by exact comparison elsewhere; here identity
		// must hold bit-for-bit regardless.
		if err := s.Append("m", int64(i)*10, float64(i%997)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	chunks := append([]*chunk(nil), s.series["m"].chunks...)
	s.mu.RUnlock()

	for _, span := range []struct {
		from, to, width int64
	}{
		{0, int64(n) * 10, 999},       // everything, unaligned width
		{12345, 98765, 1 << 40},       // one window far wider than the span
		{-100, 50000, 7},              // negative from, tiny windows
		{5120, 5120, 10},              // single point
		{int64(n) * 100, 1 << 60, 10}, // after all data: no windows
	} {
		want := windowChunks(chunks, span.from, span.to, span.width, 1)
		wantMeans, err := s.WindowN("m", span.from, span.to, span.width, AggMean, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 7, 64} {
			got := windowChunks(chunks, span.from, span.to, span.width, parts)
			if len(got) != len(want) {
				t.Fatalf("span %+v parts=%d: %d windows, want %d", span, parts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("span %+v parts=%d: window %d = %+v, want %+v", span, parts, i, got[i], want[i])
				}
			}
			means, err := s.WindowN("m", span.from, span.to, span.width, AggMean, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(means, wantMeans) {
				t.Fatalf("span %+v parts=%d: WindowN = %+v, want %+v", span, parts, means, wantMeans)
			}
		}
	}
}

// TestWindowMatchesFlatReference compares Store.WindowN against the
// pre-partials map-and-sort implementation over the same points. Values move
// in 0.25 steps so all sums are exact and the comparison can be bitwise.
func TestWindowMatchesFlatReference(t *testing.T) {
	s := New("ts")
	const n = 9*chunkSize + 17 // partial tail chunk
	for i := 0; i < n; i++ {
		if err := s.Append("m", int64(i)*3, float64(i%41)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	for _, span := range []struct {
		from, to, width int64
	}{
		{0, int64(n) * 3, 100},
		{500, 9000, 64},
		{-1000, 4000, 333},
	} {
		pts, err := s.Range("m", span.from, span.to)
		if err != nil {
			t.Fatal(err)
		}
		want := flatWindow(pts, span.from, span.width)
		got, err := s.WindowN("m", span.from, span.to, span.width, AggMean, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("span %+v: %d windows, want %d", span, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("span %+v: window %d = %+v, want %+v", span, i, got[i], want[i])
			}
		}
	}
}

// TestWindowConcurrentWithAppends exercises Window's per-chunk partials
// racing appends, as a tswindow node races /ingest (the -race build is the
// assertion).
func TestWindowConcurrentWithAppends(t *testing.T) {
	s := New("ts")
	for i := 0; i < 2*chunkSize; i++ {
		if err := s.Append("m", int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 2 * chunkSize; i < 6*chunkSize; i++ {
			if err := s.Append("m", int64(i)*10, float64(i)); err != nil {
				panic(fmt.Sprintf("append: %v", err))
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := s.WindowN("m", 0, int64(6*chunkSize)*10, 1000, AggMean, 0); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestRangeConcurrentWithAppends exercises parallel decode racing appends
// (the -race build is the assertion).
func TestRangeConcurrentWithAppends(t *testing.T) {
	s := New("ts")
	for i := 0; i < 4*chunkSize; i++ {
		if err := s.Append("m", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4 * chunkSize; i < 8*chunkSize; i++ {
			if err := s.Append("m", int64(i), float64(i)); err != nil {
				panic(fmt.Sprintf("append: %v", err))
			}
		}
	}()
	for i := 0; i < 50; i++ {
		pts, err := s.Range("m", 0, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(pts); j++ {
			if pts[j].TS <= pts[j-1].TS {
				t.Fatalf("out-of-order points at %d: %v then %v", j, pts[j-1], pts[j])
			}
		}
	}
	<-done
}
