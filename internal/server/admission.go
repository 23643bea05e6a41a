package server

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// refusal is the serving layer declining a request it has not run. Every
// cause — a tenant over its rate, its breaker open, the shedder, a full
// queue, single-flight leaders that all died, a draining server — is this
// one value: the wire status, the cause (which names the counters that
// move, Server.countRefusal) and the backoff the client is owed. A refusal
// is the server's condition, never the tenant's workload health, so it is
// the one kind of error that feeds no breaker (outcomeOf).
type refusal struct {
	status     int // 429 or 503
	cause      cause
	msg        string
	retryAfter time.Duration // sub-second and zero hints leave as Retry-After: 1
}

func (r *refusal) Error() string { return r.msg }

// cause says why a request was refused.
type cause uint8

const (
	causeRate         cause = iota // tenant's token bucket is empty
	causeBreaker                   // tenant's breaker is open, or its probes are out
	causeShedCold                  // load at or past the high-water mark
	causeShedDeadline              // the queue ahead outlasts the request's deadline
	causeQueueFull                 // workers and queue both full
	causeLeadersGone               // every single-flight leader followed was canceled
	causeDraining                  // shutting down
)

// String is the cause's label in shed messages and trace events.
func (c cause) String() string {
	return [...]string{"rate", "breaker", "cold", "deadline", "queue", "leaders", "draining"}[c]
}

// admission is the gate in front of the bounded worker pool: per-tenant
// token buckets and breakers gate request *rate* and *health* upstream
// (tenants.go); this controller decides whether the request may wait at all
// and schedules request *order*. At most `workers` requests execute
// concurrently; at most `queueCap` more wait; from the high-water mark on
// it sheds executions before the queue is full, and anything whose
// estimated queue wait already exceeds its deadline: an honest 503 now
// instead of a certain 504 after occupying queue space. Root-probe hits
// and single-flight followers never come here, which is what keeps cached
// reads serving through an overload. Waiters are grouped into one flow per
// tenant, and the flows that have waiters form a ring: a free worker goes to
// the oldest waiter of the flow at the front, and that flow moves to the
// back if it still has waiters (round robin, the unit-weight case of fair
// queuing). One abusive tenant with a thousand queued requests therefore
// gets the same grant rate as a well-behaved tenant with two — its surplus
// just waits (or overflows into queue-full refusals). A single-tenant
// deployment has exactly one flow, which degenerates to the FIFO semaphore
// this scheduler replaced.
type admission struct {
	mu       sync.Mutex
	workers  int
	queueCap int
	// highWater is the load fraction of workers+queueCap at which
	// executions are shed; <= 0 never sheds.
	highWater float64
	running   int
	queued    int
	flows     map[string]*admFlow // by tenant, only while it has waiters
	ring      list.List           // of *admFlow; the front is granted next
	// svc is the EWMA (alpha 1/8) of successful executions' wall time: what
	// one queued request ahead costs a newcomer.
	svc time.Duration
}

// admFlow is one tenant's FIFO of waiters and its place in the ring.
type admFlow struct {
	tenant  string
	waiters list.List // of *admWaiter
	turn    *list.Element
}

// admWaiter is one queued request.
type admWaiter struct {
	grant   chan struct{}
	flow    *admFlow
	el      *list.Element // in flow.waiters
	granted bool          // set under admission.mu before grant closes
}

// newAdmission builds a controller with the given worker and queue bounds
// (minimums of 1 and 0 are enforced) and shedding threshold.
func newAdmission(workers, queue int, highWater float64) *admission {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{
		workers:   workers,
		queueCap:  queue,
		highWater: highWater,
		flows:     make(map[string]*admFlow),
	}
}

// acquire claims a worker slot for the tenant's request, waiting its turn in
// the queue if needed. It fails with a *refusal when the request is shed or
// the queue is full, or the context error if the caller's deadline expires
// while still queued.
func (a *admission) acquire(ctx context.Context, tenantID string) error {
	a.mu.Lock()
	queued := a.queued
	if ref := a.shedLocked(ctx, queued); ref != nil {
		a.mu.Unlock()
		return ref
	}
	if a.running < a.workers && queued == 0 {
		a.running++
		a.mu.Unlock()
		return nil
	}
	if queued >= a.queueCap {
		wait := a.estWaitLocked(queued)
		a.mu.Unlock()
		return &refusal{
			status:     http.StatusTooManyRequests,
			cause:      causeQueueFull,
			msg:        fmt.Sprintf("server: overloaded, queue full (%d queued)", queued),
			retryAfter: wait,
		}
	}
	f := a.flows[tenantID]
	if f == nil {
		// A tenant that starts waiting joins the ring at the back.
		f = &admFlow{tenant: tenantID}
		f.turn = a.ring.PushBack(f)
		a.flows[tenantID] = f
	}
	w := &admWaiter{grant: make(chan struct{}), flow: f}
	w.el = f.waiters.PushBack(w)
	a.queued++
	// A worker may have freed between the fast-path check and the enqueue.
	a.dispatchLocked()
	a.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours, so return
			// it through the normal release path before reporting the error.
			a.mu.Unlock()
			a.release(0)
			return ctx.Err()
		}
		a.dequeueLocked(w)
		a.mu.Unlock()
		return ctx.Err()
	}
}

// shedLocked applies the degradation policy to one arrival with queued
// waiters ahead of it. Called with the lock held.
func (a *admission) shedLocked(ctx context.Context, queued int) *refusal {
	if a.highWater <= 0 {
		return nil
	}
	shed := func(c cause, retryAfter time.Duration) *refusal {
		return &refusal{
			status:     http.StatusServiceUnavailable,
			cause:      c,
			msg:        fmt.Sprintf("server: overloaded, %s work shed", c),
			retryAfter: retryAfter,
		}
	}
	wait := a.estWaitLocked(queued)
	if dl, ok := ctx.Deadline(); ok {
		// If the queue ahead already eats the whole budget, the request
		// cannot finish in time.
		if remaining := time.Until(dl); remaining > 0 && wait > remaining {
			return shed(causeShedDeadline, wait-remaining)
		}
	}
	if frac := float64(a.running+queued) / float64(a.workers+a.queueCap); frac >= a.highWater {
		return shed(causeShedCold, wait)
	}
	return nil
}

// estWaitLocked estimates how long queued requests take to drain: spread
// across the workers at the observed service time (0 before any
// observation). Called with the lock held.
func (a *admission) estWaitLocked(queued int) time.Duration {
	return time.Duration(queued) * a.svc / time.Duration(a.workers)
}

// serviceEWMA returns the current service-time estimate.
func (a *admission) serviceEWMA() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.svc
}

// release returns the worker slot claimed by a successful acquire and
// grants it to the next waiter in turn, if any. svc is the wall time of the
// execution the slot was held for when it succeeded (0 otherwise), and is
// folded into the service-time estimate.
func (a *admission) release(svc time.Duration) {
	a.mu.Lock()
	switch {
	case svc <= 0:
	case a.svc == 0:
		a.svc = svc
	default:
		a.svc += (svc - a.svc) / 8
	}
	a.running--
	a.dispatchLocked()
	a.mu.Unlock()
}

// dispatchLocked grants free workers round robin: each grant goes to the
// oldest waiter of the flow at the front of the ring. Called with the lock
// held.
func (a *admission) dispatchLocked() {
	for a.running < a.workers && a.ring.Len() > 0 {
		f := a.ring.Front().Value.(*admFlow)
		w := f.waiters.Front().Value.(*admWaiter)
		a.dequeueLocked(w)
		if f.waiters.Len() > 0 {
			a.ring.MoveToBack(f.turn)
		}
		a.running++
		w.granted = true
		close(w.grant)
	}
}

// dequeueLocked takes a waiter out of its flow's queue, and the flow out of
// the ring once it has no waiters left. Called with the lock held, only
// while the waiter is queued.
func (a *admission) dequeueLocked(w *admWaiter) {
	f := w.flow
	f.waiters.Remove(w.el)
	a.queued--
	if f.waiters.Len() == 0 {
		a.ring.Remove(f.turn)
		delete(a.flows, f.tenant)
	}
}

// inflight returns the current number of executions holding a worker slot;
// queueDepth counts the requests waiting for one.
func (a *admission) inflight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.running)
}

// queueDepth returns the current number of queued (not yet executing)
// requests.
func (a *admission) queueDepth() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.queued)
}
