// Package partition holds a bounded pool of worker slots that runs a set of
// tasks, fanning them out while slots are free and running the rest inline on
// the caller. No kernel fans out any more: every relational and timeseries
// kernel runs one pass over its input. The package remains only because the
// benchmark harness in bench/ times Do (partition.do_overhead_us).
//
// The pool is degradation-friendly: when every worker slot is taken, tasks
// run inline on the calling goroutine instead of queueing, so a saturated
// pool degrades to sequential execution and can never deadlock.
package partition

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Pool is a bounded set of worker slots. The zero value is not usable; use
// the process-wide Shared pool.
type Pool struct {
	sem chan struct{}
}

// newPool returns a pool bounded to workers concurrent tasks (minimum 1).
func newPool(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, max(workers, 1))}
}

// shared is the process-wide pool: one slot per CPU.
var shared = newPool(runtime.GOMAXPROCS(0))

// Shared returns the process-wide pool.
func Shared() *Pool { return shared }

// Do runs fn(0) .. fn(n-1), n ≥ 0, fanning tasks onto pool workers while
// slots are free and running the rest inline on the calling goroutine. It
// waits for all tasks and returns the lowest-index error (deterministic
// regardless of goroutine schedule). Once ctx is done, unstarted tasks are
// skipped and their slots report the context error.
func (p *Pool) Do(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				// A panic on a bare worker goroutine would crash the whole
				// process; surface it as this task's error instead, so it
				// fails one query the way an inline panic (caught by
				// net/http's per-connection recover) fails one request.
				defer func() {
					if r := recover(); r != nil {
						errs[i] = fmt.Errorf("partition: task %d panicked: %v", i, r)
					}
				}()
				errs[i] = fn(i)
			}(i)
		default:
			errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
