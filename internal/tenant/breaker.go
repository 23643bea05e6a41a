package tenant

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed: requests flow; failures are counted in a rolling window.
	Closed BreakerState = iota
	// Open: requests are rejected outright until the cooldown elapses.
	Open
	// HalfOpen: a bounded number of probe requests test recovery.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// A breaker computes failure rates over breakerWindow, split into
// breakerBuckets sub-intervals, and trusts the ratio only once the window
// holds breakerMinSamples outcomes — a single failed request must not open
// it. It opens when failures reach breakerFailureRatio of them, and rejects
// for breakerCooldown before probing. In half-open state up to
// halfOpenProbes trial requests run at once, and that many consecutive
// successes close the breaker.
const (
	breakerWindow       = 10 * time.Second
	breakerBuckets      = 10
	bucketLen           = breakerWindow / breakerBuckets
	breakerMinSamples   = 20
	breakerFailureRatio = 0.5
	breakerCooldown     = 5 * time.Second
	halfOpenProbes      = 3
)

// Breaker is a closed/open/half-open circuit breaker over error and timeout
// rates in a rolling bucketed window. The serving layer keeps one per
// tenant, beside its Bucket: a tenant whose queries persistently fail or
// hit their deadlines trips its own breaker and is rejected cheaply (503 +
// Retry-After) instead of occupying workers for full deadline budgets, while
// other tenants' breakers stay closed.
//
// The zero value is a closed breaker. All methods take the current time
// explicitly so state transitions are deterministic under test. Safe for
// concurrent use.
type Breaker struct {
	mu          sync.Mutex
	state       BreakerState
	buckets     [breakerBuckets]slot // ring over breakerWindow
	idx         int                  // current bucket
	bucketStart time.Time
	openedAt    time.Time
	probes      int // half-open: in-flight probes
	probeOKs    int // half-open: consecutive successes
	opens       int64
}

// slot is one sub-interval of the window.
type slot struct {
	ok, fail int64
}

// advance rotates the ring forward to cover now, zeroing buckets that fell
// out of the window. Called with the lock held.
func (b *Breaker) advance(now time.Time) {
	if b.bucketStart.IsZero() {
		b.bucketStart = now
		return
	}
	steps := int(now.Sub(b.bucketStart) / bucketLen)
	if steps <= 0 {
		return
	}
	// Buckets stay aligned to bucketLen boundaries: a bucket started at now
	// would span from its first record, and under a steady trickle the ring
	// would cover up to twice the window.
	b.bucketStart = b.bucketStart.Add(time.Duration(steps) * bucketLen)
	if steps > len(b.buckets) {
		steps = len(b.buckets)
	}
	for i := 0; i < steps; i++ {
		b.idx = (b.idx + 1) % len(b.buckets)
		b.buckets[b.idx] = slot{}
	}
}

// totals sums the window. Called with the lock held.
func (b *Breaker) totals() (ok, fail int64) {
	for _, bk := range b.buckets {
		ok += bk.ok
		fail += bk.fail
	}
	return ok, fail
}

// Allow reports whether a request may proceed at time now. When the breaker
// is open it returns false plus the remaining cooldown — the honest
// Retry-After for the 503. In half-open state up to halfOpenProbes requests
// are admitted as recovery probes; the rest are rejected with the bucket
// interval as the retry hint. Every admitted request owes the breaker one
// Record or one Release.
func (b *Breaker) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, 0
	case Open:
		if rem := breakerCooldown - now.Sub(b.openedAt); rem > 0 {
			return false, rem
		}
		b.state = HalfOpen
		b.probes = 0
		b.probeOKs = 0
		fallthrough
	default: // HalfOpen
		if b.probes >= halfOpenProbes {
			return false, bucketLen
		}
		b.probes++
		return true, 0
	}
}

// Record feeds one finished request's outcome at time now. Failures are
// execution errors and deadline expiries; rejections (rate limits, queue
// overflow, shedding) must NOT be recorded — they are the server's
// condition, not the tenant's workload health.
func (b *Breaker) Record(now time.Time, success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if !success {
			b.trip(now)
			return
		}
		b.probeOKs++
		if b.probeOKs >= halfOpenProbes {
			// Recovered: close with a clean window.
			b.state = Closed
			b.buckets = [breakerBuckets]slot{}
			b.bucketStart = now
		}
	case Closed:
		b.advance(now)
		if success {
			b.buckets[b.idx].ok++
			return
		}
		b.buckets[b.idx].fail++
		okN, failN := b.totals()
		if n := okN + failN; n >= breakerMinSamples &&
			float64(failN)/float64(n) >= breakerFailureRatio {
			b.trip(now)
		}
	case Open:
		// A request admitted before the trip finishing late: ignore.
	}
}

// Release hands back an admitted request that has no outcome to record: it
// was refused further in, or was malformed and never ran. A half-open probe
// slot is freed for the next request; the window is not fed.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
}

// trip opens the breaker. Called with the lock held.
func (b *Breaker) trip(now time.Time) {
	b.state = Open
	b.openedAt = now
	b.opens++
	b.buckets = [breakerBuckets]slot{}
	b.bucketStart = now
}

// State returns the current position (advancing Open -> HalfOpen is left to
// the next Allow, so a snapshot may read Open past the cooldown).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped over its lifetime.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
