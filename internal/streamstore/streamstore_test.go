package streamstore

import (
	"errors"
	"math"
	"testing"
)

func TestAppendReadLen(t *testing.T) {
	s := New("st")
	if s.Name() != "st" {
		t.Fatal("name")
	}
	if n := s.Append("vitals", Event{TS: 1, Key: "p1", Value: 80}, Event{TS: 2, Key: "p1", Value: 82}); n != 2 {
		t.Fatalf("len = %d", n)
	}
	if n, v := s.Append("vitals"), s.Version(); n != 2 || v != 1 {
		t.Fatalf("appending nothing: len %d, version %d", n, v)
	}
	out, err := s.WindowAggregate("vitals", 2, 3, WindowSpec{Width: 1, Slide: 1})
	if err != nil || len(out) != 1 || out[0].Sum != 82 {
		t.Fatalf("window over the second event = %+v, %v", out, err)
	}
}

func TestWindowSpecValidate(t *testing.T) {
	for _, bad := range []WindowSpec{
		{Width: 0, Slide: 1},
		{Width: 10, Slide: 0},
		{Width: 10, Slide: 20}, // slide > width unsupported
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadWindow) {
			t.Fatalf("%+v: %v", bad, err)
		}
	}
	if err := (WindowSpec{Width: 10, Slide: 10}).Validate(); err != nil {
		t.Fatalf("tumbling: %v", err)
	}
}

func TestTumblingWindows(t *testing.T) {
	s := New("st")
	for i := int64(0); i < 100; i++ {
		s.Append("x", Event{TS: i, Key: "k", Value: 1})
	}
	out, err := s.WindowAggregate("x", 0, 100, WindowSpec{Width: 10, Slide: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("windows = %d", len(out))
	}
	for _, w := range out {
		if w.Count != 10 || w.Sum != 10 || w.Mean() != 1 {
			t.Fatalf("window %+v", w)
		}
	}
}

func TestSlidingWindows(t *testing.T) {
	s := New("st")
	// One event at ts=25 must appear in windows starting at 0, 10, 20
	// (width 30, slide 10).
	s.Append("x", Event{TS: 25, Key: "k", Value: 5})
	out, err := s.WindowAggregate("x", 0, 100, WindowSpec{Width: 30, Slide: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("sliding windows = %d, want 3: %+v", len(out), out)
	}
	starts := map[int64]bool{}
	for _, w := range out {
		starts[w.Start] = true
		if w.Sum != 5 || w.Count != 1 {
			t.Fatalf("window %+v", w)
		}
	}
	for _, want := range []int64{0, 10, 20} {
		if !starts[want] {
			t.Fatalf("missing window start %d: %v", want, starts)
		}
	}
	// Near the ends of the int64 range an event's offset from from, or a
	// window's end, exceeds MaxInt64 and must not wrap.
	for _, tc := range []struct {
		ts, from, to int64
		spec         WindowSpec
		start        int64
	}{
		{5, math.MinInt64, 100, WindowSpec{Width: 10, Slide: 10}, 2},
		{math.MinInt64 + 3, math.MinInt64, 100, WindowSpec{Width: 10, Slide: 5}, math.MinInt64},
		{math.MaxInt64 - 1, 0, math.MaxInt64, WindowSpec{Width: 10, Slide: 10}, math.MaxInt64 - 7},
	} {
		s := New("st")
		s.Append("x", Event{TS: tc.ts, Key: "k", Value: 1})
		out, err := s.WindowAggregate("x", tc.from, tc.to, tc.spec)
		if err != nil || len(out) != 1 || out[0].Start != tc.start {
			t.Fatalf("event at %d over [%d, %d) %+v: windows %+v, %v, want one starting at %d", tc.ts, tc.from, tc.to, tc.spec, out, err, tc.start)
		}
	}
}

func TestWindowPerKey(t *testing.T) {
	s := New("st")
	s.Append("x",
		Event{TS: 1, Key: "a", Value: 10},
		Event{TS: 2, Key: "b", Value: 20},
		Event{TS: 3, Key: "a", Value: 30},
	)
	out, err := s.WindowAggregate("x", 0, 10, WindowSpec{Width: 10, Slide: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("per-key windows = %d", len(out))
	}
	byKey := map[string]WindowOut{}
	for _, w := range out {
		byKey[w.Key] = w
	}
	if byKey["a"].Sum != 40 || byKey["a"].Min != 10 || byKey["a"].Max != 30 {
		t.Fatalf("key a = %+v", byKey["a"])
	}
	if byKey["b"].Count != 1 || byKey["b"].Mean() != 20 {
		t.Fatalf("key b = %+v", byKey["b"])
	}
}

func TestWindowAggregateErrors(t *testing.T) {
	s := New("st")
	if _, err := s.WindowAggregate("none", 0, 10, WindowSpec{Width: 5, Slide: 5}); !errors.Is(err, ErrNoStream) {
		t.Fatalf("missing stream: %v", err)
	}
	s.Append("x", Event{TS: 1})
	if _, err := s.WindowAggregate("x", 0, 10, WindowSpec{}); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("bad spec: %v", err)
	}
}

func TestMeanEmptyWindow(t *testing.T) {
	var w WindowOut
	if w.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}
