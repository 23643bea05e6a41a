package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func fill(t *testing.T, s *Store, name string, n int, step int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(name, int64(i)*step, float64(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestAppendAndRange(t *testing.T) {
	s := New("ts")
	fill(t, s, "hr", 2000, 10) // spans multiple chunks
	if all, err := s.Range("hr", 0, 20000); err != nil || len(all) != 2000 {
		t.Fatalf("points = %d, %v", len(all), err)
	}
	pts, err := s.Range("hr", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("range pts = %d, want 11", len(pts))
	}
	if pts[0].TS != 100 || pts[10].TS != 200 {
		t.Fatalf("range bounds: %v ... %v", pts[0], pts[10])
	}
	if _, err := s.Range("missing", 0, 1); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("missing series: %v", err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	s := New("ts")
	if err := s.Append("a", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", 100, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("same ts: %v", err)
	}
	if err := s.Append("a", 50, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("earlier ts: %v", err)
	}
}

// TestOutOfOrderRejectedAtChunkBoundary: a stale timestamp arriving exactly
// when the previous chunk is full opens a fresh chunk with no lastTS of its
// own — the cross-chunk ordering check must still reject it, or the
// time-ordered-chunks invariant behind the window fold and range stitch
// breaks silently.
func TestOutOfOrderRejectedAtChunkBoundary(t *testing.T) {
	s := New("ts")
	fill(t, s, "a", chunkSize, 10) // exactly one full chunk, ts 0..5110
	if err := s.Append("a", 5, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("stale ts at chunk boundary: %v, want ErrOutOfOrder", err)
	}
	if err := s.Append("a", int64(chunkSize)*10, 1); err != nil {
		t.Fatalf("in-order ts at chunk boundary: %v", err)
	}
	wrs, err := s.WindowN("a", 0, int64(chunkSize)*10, 1000, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(wrs); i++ {
		if wrs[i].Start <= wrs[i-1].Start {
			t.Fatalf("windows out of order at %d: %d then %d", i, wrs[i-1].Start, wrs[i].Start)
		}
	}
}

func TestDeltaOfDeltaRoundTrip(t *testing.T) {
	s := New("ts")
	rng := rand.New(rand.NewSource(9))
	ts := int64(0)
	var want []Point
	for i := 0; i < 1500; i++ {
		ts += int64(rng.Intn(1000) + 1) // irregular intervals
		p := Point{TS: ts, Value: rng.Float64() * 100}
		want = append(want, p)
		if err := s.Append("x", p.TS, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Range("x", 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d of %d points", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWindowAggregations(t *testing.T) {
	s := New("ts")
	fill(t, s, "v", 100, 1) // ts 0..99, value = ts
	wrs, err := s.WindowN("v", 0, 99, 10, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 10 {
		t.Fatalf("windows = %d", len(wrs))
	}
	for i, w := range wrs {
		if w.Start != int64(i)*10 || w.Value != float64(i)*10+4.5 || w.N != 10 {
			t.Fatalf("window %d = %+v", i, w)
		}
	}
	if _, err := s.WindowN("v", 0, 99, 0, AggMean, 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("zero width: %v", err)
	}
	if _, err := s.WindowN("v", 0, 99, 10, AggMean+1, 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("aggregation other than the mean: %v", err)
	}
}

// TestWindowWiderThanRange: a width larger than the whole queried range
// collapses everything into one window anchored at from.
func TestWindowWiderThanRange(t *testing.T) {
	s := New("ts")
	fill(t, s, "v", 100, 1) // ts 0..99, value = ts
	wrs, err := s.WindowN("v", 0, 99, 1_000_000, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 1 {
		t.Fatalf("windows = %d, want 1", len(wrs))
	}
	if wrs[0].Start != 0 || wrs[0].Value != 49.5 || wrs[0].N != 100 {
		t.Fatalf("window = %+v, want start=0 mean=49.5 n=100", wrs[0])
	}
}

// TestWindowBoundaryPoints: a point whose timestamp lands exactly on a
// window boundary belongs to the window it starts, never the previous one.
func TestWindowBoundaryPoints(t *testing.T) {
	s := New("ts")
	// Points exactly at 0, 10, 20, ..., 90 — every one on a boundary.
	for i := 0; i < 10; i++ {
		if err := s.Append("v", int64(i)*10, 1); err != nil {
			t.Fatal(err)
		}
	}
	wrs, err := s.WindowN("v", 0, 90, 10, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 10 {
		t.Fatalf("windows = %d, want 10 (one per boundary point)", len(wrs))
	}
	for i, w := range wrs {
		if w.Start != int64(i)*10 || w.Value != 1 || w.N != 1 {
			t.Fatalf("window %d = %+v, want start=%d mean=1 n=1", i, w, i*10)
		}
	}
}

// TestWindowNegativeFrom: window starts are anchored at from even when it is
// negative, down to MinInt64, where a point's offset from from exceeds
// MaxInt64, and points before from stay excluded.
func TestWindowNegativeFrom(t *testing.T) {
	s := New("ts")
	fill(t, s, "v", 20, 1) // ts 0..19
	wrs, err := s.WindowN("v", -7, 19, 10, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Windows anchored at -7: [-7,3) holds ts 0..2, [3,13) holds 3..12,
	// [13,23) holds 13..19.
	want := []WindowResult{
		{Start: -7, Value: 1, N: 3},
		{Start: 3, Value: 7.5, N: 10},
		{Start: 13, Value: 16, N: 7},
	}
	if len(wrs) != len(want) {
		t.Fatalf("windows = %+v, want %+v", wrs, want)
	}
	for i := range want {
		if wrs[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, wrs[i], want[i])
		}
	}
	for _, tc := range []struct{ ts, start int64 }{
		{5, 2},
		{math.MaxInt64, math.MaxInt64 - 5},
	} {
		s := New("ts")
		if err := s.Append("x", tc.ts, 1); err != nil {
			t.Fatal(err)
		}
		wrs, err := s.WindowN("x", math.MinInt64, math.MaxInt64, 10, AggMean, 1)
		if err != nil || len(wrs) != 1 || wrs[0].Start != tc.start {
			t.Fatalf("point at %d, from MinInt64: windows %+v, %v, want one starting at %d", tc.ts, wrs, err, tc.start)
		}
	}
}

// TestWindowEmptyRange: a span containing no points yields no windows
// (empty windows are never emitted).
func TestWindowEmptyRange(t *testing.T) {
	s := New("ts")
	fill(t, s, "v", 100, 10) // ts 0..990
	wrs, err := s.WindowN("v", 1001, 2000, 50, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 0 {
		t.Fatalf("windows over empty span = %+v, want none", wrs)
	}
	// Between two points: ts 10 and 20 exist, 11..19 holds none.
	wrs, err = s.WindowN("v", 11, 19, 3, AggMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs) != 0 {
		t.Fatalf("windows between points = %+v, want none", wrs)
	}
}

func TestSeriesNames(t *testing.T) {
	s := New("ts")
	fill(t, s, "b", 1, 1)
	fill(t, s, "a", 1, 1)
	names := s.SeriesNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// Property: Range(from, to) returns exactly the appended points within the
// closed interval, in order.
func TestPropertyRangeMatchesLinear(t *testing.T) {
	f := func(seed int64, n uint8, fromRaw, spanRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("p")
		count := int(n)%500 + 1
		ts := int64(0)
		var all []Point
		for i := 0; i < count; i++ {
			ts += int64(rng.Intn(50) + 1)
			p := Point{TS: ts, Value: float64(i)}
			all = append(all, p)
			if err := s.Append("x", p.TS, p.Value); err != nil {
				return false
			}
		}
		from := int64(fromRaw) % (ts + 1)
		to := from + int64(spanRaw)
		got, err := s.Range("x", from, to)
		if err != nil {
			return false
		}
		var want []Point
		for _, p := range all {
			if p.TS >= from && p.TS <= to {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sums behind the means of disjoint (tumbling) windows
// partition the range sum.
func TestPropertyWindowSumPartition(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("p")
		count := int(n)%300 + 10
		ts := int64(0)
		var total float64
		for i := 0; i < count; i++ {
			ts += int64(rng.Intn(9) + 1)
			v := rng.Float64()
			total += v
			if err := s.Append("x", ts, v); err != nil {
				return false
			}
		}
		wrs, err := s.WindowN("x", 0, ts, 37, AggMean, 0)
		if err != nil {
			return false
		}
		var winTotal float64
		for _, w := range wrs {
			winTotal += w.Value * float64(w.N)
		}
		return winTotal > total-1e-9 && winTotal < total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
