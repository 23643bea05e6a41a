package partition

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSplitCoversAllRows(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 7}, {5, 7}, {100, 7}, {4096, 64}, {10, 0},
	} {
		rs := Split(tc.n, tc.parts)
		wantParts := tc.parts
		if wantParts < 1 {
			wantParts = 1
		}
		if len(rs) != wantParts {
			t.Fatalf("Split(%d,%d) = %d ranges, want %d", tc.n, tc.parts, len(rs), wantParts)
		}
		lo, total := 0, 0
		for _, r := range rs {
			if r.Lo != lo {
				t.Fatalf("Split(%d,%d): gap at %d (got Lo=%d)", tc.n, tc.parts, lo, r.Lo)
			}
			if r.Hi < r.Lo {
				t.Fatalf("Split(%d,%d): inverted range %+v", tc.n, tc.parts, r)
			}
			lo = r.Hi
			total += r.Hi - r.Lo
		}
		if total != tc.n {
			t.Fatalf("Split(%d,%d) covers %d rows", tc.n, tc.parts, total)
		}
	}
}

func TestSplitBalance(t *testing.T) {
	rs := Split(10, 3)
	min, max := rs[0].Hi-rs[0].Lo, rs[0].Hi-rs[0].Lo
	for _, r := range rs {
		if r.Hi-r.Lo < min {
			min = r.Hi - r.Lo
		}
		if r.Hi-r.Lo > max {
			max = r.Hi - r.Lo
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced split: sizes differ by %d", max-min)
	}
}

func TestAuto(t *testing.T) {
	p := NewPool(8)
	if got := Auto(10, p); got != 1 {
		t.Fatalf("Auto(10) = %d, want 1", got)
	}
	if got := Auto(minPartitionRows*2, p); got != 2 {
		t.Fatalf("Auto(%d) = %d, want 2", minPartitionRows*2, got)
	}
	if got := Auto(1<<30, p); got != 8 {
		t.Fatalf("Auto(huge) = %d, want pool width 8", got)
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var ran [100]atomic.Bool
	if err := p.Do(context.Background(), len(ran), func(i int) error {
		ran[i].Store(true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("task %d did not run", i)
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	p := NewPool(4)
	e3, e7 := errors.New("three"), errors.New("seven")
	err := p.Do(context.Background(), 10, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("err = %v, want lowest-index error %v", err, e3)
	}
}

func TestDoSaturatedPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	// Occupy the only slot so every task must run inline on the caller.
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	n := 0
	if err := p.Do(context.Background(), 5, func(i int) error {
		n++ // safe: all inline on this goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ran %d of 5 tasks", n)
	}
	if _, inlined := p.Stats(); inlined < 5 {
		t.Fatalf("inlined = %d, want >= 5", inlined)
	}
}

// TestDoWorkerPanicBecomesError checks a panic in a task never escapes as a
// process crash: spawned workers convert it to that partition's error, and
// inline tasks propagate it to the caller (where net/http's per-connection
// recover applies) — either way it stays survivable.
func TestDoWorkerPanicBecomesError(t *testing.T) {
	p := NewPool(4)
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("inline task panicked: %v", r)
			}
		}()
		err = p.Do(context.Background(), 8, func(i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
	}()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a task-panic error", err)
	}
}

func TestDoCanceledContext(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Do(ctx, 4, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
