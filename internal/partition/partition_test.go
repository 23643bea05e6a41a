package partition

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoRunsAllTasks(t *testing.T) {
	p := newPool(4)
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
	p := newPool(4)
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
	p := newPool(1)
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
}

// TestDoWorkerPanicBecomesError checks a panic in a task never escapes as a
// process crash: spawned workers convert it to that partition's error, and
// inline tasks propagate it to the caller (where net/http's per-connection
// recover applies) — either way it stays survivable.
func TestDoWorkerPanicBecomesError(t *testing.T) {
	p := newPool(4)
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
	p := newPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Do(ctx, 4, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
