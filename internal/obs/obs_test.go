package obs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"polystorepp/internal/metrics"
)

// A nil trace must be invisible: context unchanged, every method a no-op.
func TestNilTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	if got := With(ctx, nil); got != ctx {
		t.Fatal("With(ctx, nil) must return ctx unchanged")
	}
	if tr := From(ctx); tr != nil {
		t.Fatalf("From on untouched context = %v, want nil", tr)
	}
	var tr *Trace
	// None of these may panic.
	tr.AddSpan(Span{Node: 1})
	tr.Event("x", "")
	tr.Phase("y", "", time.Now())
	tr.Annotate("k", "v")
	if tree := tr.Finish(); tree != nil {
		t.Fatalf("nil.Finish() = %v, want nil", tree)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := New("q-1")
	ctx := With(context.Background(), tr)
	if got := From(ctx); got != tr {
		t.Fatal("From did not return the installed trace")
	}
	tr.Event("cache.result", "miss")
	tr.Phase("admission.queue", "", time.Now().Add(-2*time.Millisecond))
	tr.Annotate("single_flight", "leader")
	tr.Annotate("single_flight", "leader-retry") // later value wins
	// Spans added out of node order must come back sorted.
	tr.AddSpan(Span{Node: 3, Kind: "project", RowsOut: 5})
	tr.AddSpan(Span{Node: 1, Kind: "scan", RowsOut: 10})
	tr.AddSpan(Span{Node: 2, Kind: "filter", RowsIn: 10, RowsOut: 5, Inputs: []int64{1}})

	tree := tr.Finish()
	if tree.ID != "q-1" {
		t.Fatalf("tree id = %q", tree.ID)
	}
	if len(tree.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tree.Spans))
	}
	for i, want := range []int64{1, 2, 3} {
		if tree.Spans[i].Node != want {
			t.Fatalf("span %d node = %d, want %d", i, tree.Spans[i].Node, want)
		}
	}
	if len(tree.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(tree.Events))
	}
	if tree.Events[1].DurUS < 1000 {
		t.Fatalf("phase duration %dus, want >= ~2ms", tree.Events[1].DurUS)
	}
	if tree.Annotations["single_flight"] != "leader-retry" {
		t.Fatalf("annotation = %q", tree.Annotations["single_flight"])
	}
	if tree.WallUS < 0 {
		t.Fatalf("wall = %d", tree.WallUS)
	}
	// Finish is repeatable and snapshots independently.
	tree2 := tr.Finish()
	tree2.Spans[0].Node = 99
	if tr.Finish().Spans[0].Node != 1 {
		t.Fatal("Finish snapshot aliases internal span slice")
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := New("conc")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			tr.AddSpan(Span{Node: n})
			tr.Event("e", "")
		}(int64(i))
	}
	wg.Wait()
	tree := tr.Finish()
	if len(tree.Spans) != 32 || len(tree.Events) != 32 {
		t.Fatalf("spans=%d events=%d, want 32/32", len(tree.Spans), len(tree.Events))
	}
	for i := 1; i < len(tree.Spans); i++ {
		if tree.Spans[i-1].Node >= tree.Spans[i].Node {
			t.Fatal("spans not sorted by node id")
		}
	}
}

func TestOpStatsObserveAndSnapshot(t *testing.T) {
	s := NewOpStats()
	for i := 0; i < 100; i++ {
		s.Observe("db1", "filter", Obs{
			Wall: 40 * time.Microsecond, RowsIn: 10, RowsOut: 5, BytesIn: 80, BytesOut: 40,
		})
	}
	s.Observe("db1", "filter", Obs{Wall: 300 * time.Microsecond, RowsIn: 1, RowsOut: 1})
	s.Observe("ts", "ts_window", Obs{Wall: 2 * time.Millisecond, RowsOut: 7})

	if n := len(s.Entries()); n != 2 {
		t.Fatalf("got %d entries, want 2", n)
	}
	f := entry(t, s, "db1", "filter")
	if count(f) != 101 || f.RowsIn.Load() != 1001 || f.RowsOut.Load() != 501 || f.BytesIn.Load() != 8000 || f.BytesOut.Load() != 4000 {
		t.Fatalf("bad aggregate: count=%d rows=%d/%d bytes=%d/%d", count(f), f.RowsIn.Load(), f.RowsOut.Load(), f.BytesIn.Load(), f.BytesOut.Load())
	}
	if q := f.Latency.Quantile(0.50); q != 50 { // 40µs falls in the (25, 50] bucket
		t.Fatalf("p50 = %g, want 50", q)
	}
	if q := f.Latency.Quantile(0.99); q != 50 { // 1 outlier in 101 samples sits above the p99 rank
		t.Fatalf("p99 = %g, want 50", q)
	}
	if want := 100*40*time.Microsecond + 300*time.Microsecond; f.WallNanos.Load() != want.Nanoseconds() {
		t.Fatalf("wall = %dns, want %d", f.WallNanos.Load(), want.Nanoseconds())
	}
	w := entry(t, s, "ts", "ts_window")
	if count(w) != 1 || w.RowsOut.Load() != 7 {
		t.Fatalf("bad ts aggregate: count=%d rows_out=%d", count(w), w.RowsOut.Load())
	}
}

// entry returns the aggregate of (engine, op), failing the test when there
// is none.
func entry(t *testing.T, s *OpStats, engine, op string) *OpEntry {
	t.Helper()
	for _, e := range s.Entries() {
		if e.Engine == engine && e.Op == op {
			return e
		}
	}
	t.Fatalf("no aggregate for %s/%s", engine, op)
	return nil
}

// count is an aggregate's execution count.
func count(e *OpEntry) int64 {
	n, _ := e.Latency.Snapshot()
	return n
}

// quantilesUS reads an aggregate's p50/p95/p99 in whole microseconds.
func quantilesUS(e *OpEntry) [3]int64 {
	return [3]int64{int64(e.Latency.Quantile(0.50)), int64(e.Latency.Quantile(0.95)), int64(e.Latency.Quantile(0.99))}
}

func TestOpStatsConcurrent(t *testing.T) {
	s := NewOpStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe("e", fmt.Sprintf("op%d", i%4), Obs{Wall: time.Microsecond, RowsOut: 1})
			}
		}(g)
	}
	// A scrape lists and reads the entries while the executor observes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range s.Entries() {
				_ = count(e) + e.RowsOut.Load()
			}
		}
	}()
	wg.Wait()
	<-done
	var total int64
	for _, e := range s.Entries() {
		total += count(e)
	}
	if total != 8000 {
		t.Fatalf("total count = %d, want 8000", total)
	}
}

func TestOpStatsTailQuantile(t *testing.T) {
	s := NewOpStats()
	for i := 0; i < 9; i++ {
		s.Observe("e", "scan", Obs{Wall: 40 * time.Microsecond})
	}
	s.Observe("e", "scan", Obs{Wall: 300 * time.Microsecond})
	if q := quantilesUS(entry(t, s, "e", "scan")); q != [3]int64{50, 500, 500} {
		t.Fatalf("quantiles = %v, want [50 500 500]", q)
	}
}

// refBucketOf and refBucketQuantile are the private bucket search and
// quantile rule OpStats carried before it moved onto metrics.Histogram,
// kept as the reference the shared type is checked against.
func refBucketOf(bounds []int64, v int64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

func refBucketQuantile(bounds, counts []int64, n int64, q float64) int64 {
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > target {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1]
		}
	}
	return bounds[len(bounds)-1]
}

func TestBucketQuantileEdges(t *testing.T) {
	s := NewOpStats()
	// An entry that exists but never observed a latency cannot be built
	// through Observe; the empty case is the histogram's own.
	if q := metrics.NewHistogram(latBoundsUS).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	// Everything in the overflow bucket clamps to the last bound.
	for i := 0; i < 10; i++ {
		s.Observe("e", "scan", Obs{Wall: time.Minute})
	}
	last := int64(latBoundsUS[len(latBoundsUS)-1])
	if q := quantilesUS(entry(t, s, "e", "scan")); q[0] != last || q[2] != last {
		t.Fatalf("overflow quantiles = %d/%d, want %d", q[0], q[2], last)
	}
	// A latency exactly on a bound belongs to that bound's bucket.
	s.Observe("e", "edge", Obs{Wall: 25 * time.Microsecond})
	if q := quantilesUS(entry(t, s, "e", "edge")); q[0] != 25 {
		t.Fatalf("on-bound quantile = %d, want 25", q[0])
	}
}

func TestOpStatsQuantilesMatchReference(t *testing.T) {
	bounds := make([]int64, len(latBoundsUS))
	for i, b := range latBoundsUS {
		bounds[i] = int64(b)
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		s := NewOpStats()
		counts := make([]int64, len(bounds)+1)
		n := int64(1 + rng.Intn(60))
		for i := int64(0); i < n; i++ {
			// Log-uniform over 100ns .. ~100s: sub-microsecond walls, every
			// bucket and the overflow all occur; some land exactly on a bound.
			wall := time.Duration(100 * math.Pow(10, rng.Float64()*9))
			if rng.Intn(8) == 0 {
				wall = time.Duration(bounds[rng.Intn(len(bounds))]) * time.Microsecond
			}
			s.Observe("e", "op", Obs{Wall: wall})
			counts[refBucketOf(bounds, wall.Microseconds())]++
		}
		e := entry(t, s, "e", "op")
		want := [3]int64{refBucketQuantile(bounds, counts, n, 0.50), refBucketQuantile(bounds, counts, n, 0.95), refBucketQuantile(bounds, counts, n, 0.99)}
		if got := quantilesUS(e); got != want || count(e) != n {
			t.Fatalf("trial %d: count=%d quantiles=%v, reference n=%d %v", trial, count(e), got, n, want)
		}
	}
}

func TestTraceLogRetention(t *testing.T) {
	l := NewTraceLog(4, 3)
	mk := func(id string, wall int64) *Tree { return &Tree{ID: id, WallUS: wall} }
	// Record 10 traces with walls 1..10; one early outlier with wall 100.
	l.Record(mk("outlier", 100))
	for i := 1; i <= 10; i++ {
		l.Record(mk(fmt.Sprintf("t%d", i), int64(i)))
	}
	l.Record(nil) // ignored

	recent, slowest, total := l.Snapshot()
	if total != 11 {
		t.Fatalf("total = %d, want 11", total)
	}
	if len(recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(recent))
	}
	for i, want := range []string{"t10", "t9", "t8", "t7"} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	// The outlier survives in slowest even though the recent ring dropped it.
	if len(slowest) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(slowest))
	}
	for i, want := range []string{"outlier", "t10", "t9"} {
		if slowest[i].ID != want {
			t.Fatalf("slowest[%d] = %s, want %s", i, slowest[i].ID, want)
		}
	}

	var nilLog *TraceLog
	nilLog.Record(mk("x", 1))
	if r, s, n := nilLog.Snapshot(); r != nil || s != nil || n != 0 {
		t.Fatal("nil TraceLog must be inert")
	}
}

func TestTraceLogConcurrent(t *testing.T) {
	l := NewTraceLog(8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(&Tree{ID: "x", WallUS: int64(g*1000 + i)})
			}
		}(g)
	}
	wg.Wait()
	recent, slowest, total := l.Snapshot()
	if total != 1600 || len(recent) != 8 || len(slowest) != 4 {
		t.Fatalf("total=%d recent=%d slowest=%d", total, len(recent), len(slowest))
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i-1].WallUS < slowest[i].WallUS {
			t.Fatal("slowest not sorted descending")
		}
	}
}
