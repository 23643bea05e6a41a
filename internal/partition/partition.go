// Package partition provides the shared machinery behind partition-parallel
// scans: fixed row-range splitting and a bounded scan-worker pool every
// engine in the process draws from. Polystore++ argues that polystore
// performance comes from exploiting hardware parallelism *inside* each
// engine, not only from routing across engines; this package is where that
// intra-engine parallelism is rationed so concurrent queries across engines
// cannot oversubscribe the host.
//
// The pool is deliberately degradation-friendly: when every worker slot is
// taken, tasks run inline on the calling goroutine instead of queueing, so a
// saturated pool degrades to sequential execution and can never deadlock —
// even when partitioned operators nest (a parallel group-by over a parallel
// filter) or when the DAG scheduler already fans out across engines.
package partition

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Range is one contiguous row range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Split divides [0, n) into exactly parts contiguous ranges whose sizes
// differ by at most one row. parts < 1 is treated as 1; when parts > n some
// trailing ranges are empty (partitioned operators must tolerate empty and
// single-row partitions — the equivalence tests exercise both).
func Split(n, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([]Range, parts)
	base, extra := n/parts, n%parts
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// minPartitionRows is the smallest per-partition slab worth a goroutine
// handoff; below 2x this, fan-out overhead exceeds the scan work and Auto
// keeps execution sequential.
const minPartitionRows = 2048

// Auto picks a partition count for a scan of n rows: 1 for small inputs,
// otherwise one partition per minPartitionRows capped at the pool width.
func Auto(n int, p *Pool) int {
	if n < 2*minPartitionRows {
		return 1
	}
	parts := n / minPartitionRows
	if w := p.Width(); parts > w {
		parts = w
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}

// Effective resolves the partition count an operator over n rows actually
// uses: an explicit parts attribute (> 0) wins, anything else falls back to
// Auto over the shared pool — the same resolution the partitioned relational
// operators apply, factored out so adapters can report the realized fan-out
// to the observability layer without re-deriving it.
func Effective(n, parts int) int {
	if parts > 0 {
		return parts
	}
	return Auto(n, Shared())
}

// Pool is a bounded set of scan-worker slots. The zero value is not usable;
// construct with NewPool or use the process-wide Shared pool.
type Pool struct {
	sem chan struct{}
	// spawned / inlined count how tasks were placed, for observability.
	spawned atomic.Int64
	inlined atomic.Int64
}

// NewPool returns a pool bounded to workers concurrent tasks (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// shared is the process-wide scan pool: one slot per CPU. Every partitioned
// operator in every engine draws from it, so total scan parallelism is
// bounded regardless of how many queries and engines fan out at once.
var shared = NewPool(runtime.GOMAXPROCS(0))

// Shared returns the process-wide scan pool.
func Shared() *Pool { return shared }

// Width returns the pool's worker bound.
func (p *Pool) Width() int { return cap(p.sem) }

// Stats returns how many tasks ran on pool workers vs inline on callers.
func (p *Pool) Stats() (spawned, inlined int64) {
	return p.spawned.Load(), p.inlined.Load()
}

// Do runs fn(0) .. fn(n-1), fanning tasks onto pool workers while slots are
// free and running the rest inline on the calling goroutine. It waits for
// all tasks and returns the lowest-index error (deterministic regardless of
// goroutine schedule). Once ctx is done, unstarted tasks are skipped and
// their slots report the context error.
func (p *Pool) Do(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		select {
		case p.sem <- struct{}{}:
			p.spawned.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				// A panic on a bare worker goroutine would crash the whole
				// process; surface it as this partition's error instead, so
				// it fails one query the way an inline panic (caught by
				// net/http's per-connection recover) fails one request.
				defer func() {
					if r := recover(); r != nil {
						errs[i] = fmt.Errorf("partition: task %d panicked: %v", i, r)
					}
				}()
				errs[i] = fn(i)
			}(i)
		default:
			p.inlined.Add(1)
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
