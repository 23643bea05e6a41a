package server

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"polystorepp/internal/tenant"
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
// instead of a certain 504 after occupying queue space. Result-cache hits
// and single-flight followers never come here, which is what keeps cached
// reads serving through an overload. Waiters are grouped into flows keyed
// (tenant, class) and granted worker slots weighted-fair by virtual time:
// each grant advances its flow's clock by 1/weight, and the flow with the
// smallest clock wins the next free worker. One abusive tenant with a
// thousand queued requests therefore gets the same grant rate as a
// well-behaved tenant with two — its surplus just waits (or overflows into
// queue-full refusals), while priority classes weight interactive grants
// over batch over background. A single-tenant deployment has exactly one
// flow, which degenerates to the FIFO semaphore this scheduler replaced.
type admission struct {
	mu       sync.Mutex
	workers  int
	queueCap int
	// highWater is the load fraction of workers+queueCap at which
	// executions are shed; <= 0 never sheds.
	highWater float64
	running   int
	flows     map[flowKey]*admFlow
	vclock    float64 // virtual time of the last grant
	// svc is the EWMA (alpha 1/8) of successful executions' wall time: what
	// one queued request ahead costs a newcomer.
	svc time.Duration
}

// flowKey identifies one weighted-fair flow.
type flowKey struct {
	tenant string
	class  tenant.Class
}

// admFlow is one flow's FIFO of waiters plus its virtual clock.
type admFlow struct {
	weight  float64
	vtime   float64
	waiters *list.List // of *admWaiter
}

// admWaiter is one queued request.
type admWaiter struct {
	grant   chan struct{}
	flow    flowKey
	granted bool // set under admission.mu before grant closes
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
		flows:     make(map[flowKey]*admFlow),
	}
}

// acquire claims a worker slot for the given flow, waiting weighted-fair in
// the queue if needed. It fails with a *refusal when the request is shed or
// the queue is full, or the context error if the caller's deadline expires
// while still queued. weight <= 0 derives the flow weight from the class
// alone.
func (a *admission) acquire(ctx context.Context, fk flowKey, weight float64) error {
	if weight <= 0 {
		weight = fk.class.Weight()
	}
	a.mu.Lock()
	queued := a.queuedLocked()
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
	w := &admWaiter{grant: make(chan struct{}), flow: fk}
	f := a.flows[fk]
	if f == nil {
		// New (or re-activated) flows start at the global virtual clock:
		// they compete fairly from now on but earn no credit for idle time.
		f = &admFlow{weight: weight, vtime: a.vclock, waiters: list.New()}
		a.flows[fk] = f
	}
	f.weight = weight // later arrivals may carry an updated quota weight
	f.waiters.PushBack(w)
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
		a.removeWaiterLocked(w)
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
// dispatches the next weighted-fair waiter, if any. svc is the wall time of
// the execution the slot was held for when it succeeded (0 otherwise), and
// is folded into the service-time estimate.
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

// dispatchLocked grants free workers to queued flows in virtual-time order.
// Called with the lock held.
func (a *admission) dispatchLocked() {
	for a.running < a.workers {
		var best *admFlow
		var bestKey flowKey
		for k, f := range a.flows {
			if f.waiters.Len() == 0 {
				continue
			}
			if best == nil || f.vtime < best.vtime {
				best, bestKey = f, k
			}
		}
		if best == nil {
			return
		}
		el := best.waiters.Front()
		best.waiters.Remove(el)
		w := el.Value.(*admWaiter)
		best.vtime += 1 / best.weight
		if best.vtime > a.vclock {
			a.vclock = best.vtime
		}
		if best.waiters.Len() == 0 {
			delete(a.flows, bestKey)
		}
		a.running++
		w.granted = true
		close(w.grant)
	}
}

// removeWaiterLocked drops a canceled waiter from its flow's queue. Called
// with the lock held, only when the waiter was not granted.
func (a *admission) removeWaiterLocked(w *admWaiter) {
	f := a.flows[w.flow]
	if f == nil {
		return
	}
	for el := f.waiters.Front(); el != nil; el = el.Next() {
		if el.Value.(*admWaiter) == w {
			f.waiters.Remove(el)
			break
		}
	}
	if f.waiters.Len() == 0 {
		delete(a.flows, w.flow)
	}
}

// queuedLocked counts waiters across flows. Called with the lock held.
func (a *admission) queuedLocked() int {
	n := 0
	for _, f := range a.flows {
		n += f.waiters.Len()
	}
	return n
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
	return int64(a.queuedLocked())
}
