package server

import (
	"context"
	"errors"
	"sync"

	"polystorepp/internal/core"
)

// errFlightPanic is what followers observe when the leader's fn panicked
// before producing an outcome (the leader's own goroutine unwinds with the
// panic; net/http recovers it).
var errFlightPanic = errors.New("server: single-flight leader panicked")

// flightGroup deduplicates identical in-flight queries (the ROADMAP's
// "batching of identical in-flight queries (single-flight)"): the first
// request for a key becomes the leader and executes; followers arriving
// while it runs wait for the leader's outcome instead of holding a worker
// slot. Keys are the plan key, the bind vector and the version vector of the
// stores the plan reads (flightKey), so a follower never shares a result
// computed from other constants or over different data.
//
// Unlike golang.org/x/sync/singleflight this wait is context-aware: a
// follower whose deadline expires gives up with its own context error while
// the leader keeps running for the remaining followers.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight execution and its shared outcome.
type flightCall struct {
	done chan struct{}
	// Outcome fields are written by the leader before done closes.
	res     *core.Results
	rep     *core.Report
	planHit bool
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do executes fn under key, deduplicating concurrent callers. The shared
// return reports whether this caller piggybacked on another request's
// execution (false for the leader). Followers whose ctx expires return its
// error with shared=true.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*core.Results, *core.Report, bool, error)) (res *core.Results, rep *core.Report, planHit, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.rep, c.planHit, true, c.err
		case <-ctx.Done():
			return nil, nil, false, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// Cleanup must survive a panicking fn (net/http recovers handler
	// panics): a leaked call would wedge every future request for this key
	// behind a done channel that never closes.
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	// Pre-set the error so that when fn panics past the assignment below,
	// followers observe a failure rather than a nil outcome.
	c.err = errFlightPanic
	c.res, c.rep, c.planHit, c.err = fn()
	return c.res, c.rep, c.planHit, false, c.err
}
