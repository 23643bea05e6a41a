// Per-tenant serving state: every request resolves (via X-Tenant) to one
// tenantState holding its token bucket, circuit breaker, and counters. The
// registry is bounded (identity floods evict the least-recently-seen tenant
// instead of growing without bound), and per-tenant observability is
// emitted from registry snapshots rather than per-tenant metric names, so
// hostile ids cannot leak entries into the metrics registry.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/relational"
	"polystorepp/internal/resilience"
	"polystorepp/internal/tenant"
)

// tenantState is one tenant's live serving state.
type tenantState struct {
	id      string
	quota   tenant.Quota
	bucket  *tenant.Bucket      // nil-safe: unlimited when rate <= 0
	breaker *resilience.Breaker // nil when breakers are disabled

	requests       atomic.Int64
	ratelimited    atomic.Int64
	shed           atomic.Int64
	breakerRejects atomic.Int64
	failures       atomic.Int64 // exec errors + deadline expiries
	served         atomic.Int64 // completed (non-rejected) requests
	latencyUS      atomic.Int64 // summed wall time of served requests
}

// tenantControl owns the per-tenant registry plus the shared load shedder.
type tenantControl struct {
	registry *tenant.Registry[*tenantState]
	shedder  *resilience.Shedder
}

// newTenantControl wires quotas and breaker config into a bounded registry.
func newTenantControl(cfg Config) *tenantControl {
	bcfg := resilience.BreakerConfig{
		Window:       cfg.BreakerWindow,
		MinSamples:   cfg.BreakerMinSamples,
		FailureRatio: cfg.BreakerFailureRatio,
		Cooldown:     cfg.BreakerCooldown,
	}
	build := func(id string) *tenantState {
		q, ok := cfg.TenantQuotas[id]
		if !ok {
			q = tenant.Quota{Rate: cfg.TenantRate, Burst: cfg.TenantBurst}
		}
		ts := &tenantState{id: id, quota: q, bucket: tenant.NewBucket(q.Rate, q.Burst)}
		if !cfg.DisableBreaker {
			ts.breaker = resilience.NewBreaker(bcfg)
		}
		return ts
	}
	return &tenantControl{
		registry: tenant.NewRegistry(cfg.MaxTenants, build),
		shedder:  resilience.NewShedder(cfg.ShedHighWater),
	}
}

// state returns (building if first seen) the tenant's record.
func (tc *tenantControl) state(id string) *tenantState { return tc.registry.Get(id) }

// admit runs the pre-execution gates for one query: the tenant's rate gate,
// then its circuit breaker. A nil error admits; otherwise the returned error
// is a *RejectError carrying the wire status and Retry-After.
func (tc *tenantControl) admit(ts *tenantState, now time.Time) error {
	if err := tc.admitRate(ts, now); err != nil {
		return err
	}
	if ok, retry := ts.breaker.Allow(now); !ok {
		ts.breakerRejects.Add(1)
		return &RejectError{
			Status:     503,
			RetryAfter: retry,
			msg:        fmt.Sprintf("tenant %q circuit breaker open", ts.id),
		}
	}
	return nil
}

// admitRate counts the request and charges the tenant's token bucket — the
// one entitlement queries and writes share. /ingest stops here: ingest
// failures are validation errors, not worker-budget burn, so writes skip
// the breaker.
func (tc *tenantControl) admitRate(ts *tenantState, now time.Time) error {
	ts.requests.Add(1)
	if ok, retry := ts.bucket.Allow(now); !ok {
		ts.ratelimited.Add(1)
		return &RejectError{
			Status:     429,
			RetryAfter: retry,
			msg:        fmt.Sprintf("tenant %q over its request rate", ts.id),
		}
	}
	return nil
}

// finish folds one completed request into the tenant's breaker and latency
// accounting. Rejections (rate limit, queue overflow, shedding, open
// breaker, repeatedly-canceled leaders) are the server's condition, not the
// tenant's workload health, so they feed neither; client-side cancellations
// and malformed queries don't trip breakers either. What counts as failure
// is what burns worker budget for nothing: execution errors and deadline
// expiries.
func (tc *tenantControl) finish(ts *tenantState, err error, wall time.Duration, now time.Time) {
	if isRejection(err) {
		return
	}
	ts.served.Add(1)
	ts.latencyUS.Add(wall.Microseconds())
	failure := isTenantFailure(err)
	if failure {
		ts.failures.Add(1)
	}
	ts.breaker.Record(now, !failure)
}

// isRejection reports whether err is the serving layer refusing work before
// executing it.
func isRejection(err error) bool {
	if err == nil {
		return false
	}
	var re *RejectError
	return errors.Is(err, ErrOverloaded) || errors.Is(err, errShed) ||
		errors.Is(err, errDraining) || errors.Is(err, errLeadersGone) ||
		errors.As(err, &re)
}

// statementErrors are what an engine or adapter answers for a statement
// that cannot run on any data: it names a table or column that does not
// exist, produces two columns of one name, or hands an operator an input it
// does not take. The compiler does not see schemas, so these surface at
// execution; they are the client's mistake all the same.
var statementErrors = []error{
	cast.ErrDuplicateName, cast.ErrColumnNotFound,
	relational.ErrNoTable, relational.ErrExpr,
	adapter.ErrBadNode, adapter.ErrBadInput, adapter.ErrUnsupported,
}

// isStatementError reports whether err is one of statementErrors.
func isStatementError(err error) bool {
	for _, target := range statementErrors {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// isTenantFailure reports whether err reflects the tenant's workload
// failing (executed and errored, or ran out its deadline) — the outcomes a
// circuit breaker exists to stop paying for.
func isTenantFailure(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, compiler.ErrCompile), // malformed query: cheap, pre-execution
		isStatementError(err),            // malformed query the engine found at execution
		errors.Is(err, errStreamWrite),   // client stopped reading
		errors.Is(err, context.Canceled): // client went away
		return false
	}
	return true // execution error or context.DeadlineExceeded
}

// RejectError is a pre-execution refusal (rate limit or open breaker): the
// request was never admitted, and the client owes a backoff of RetryAfter.
type RejectError struct {
	Status     int // 429 (rate) or 503 (breaker)
	RetryAfter time.Duration
	msg        string
}

func (e *RejectError) Error() string { return e.msg }

// errShed is the sentinel shed failures match with errors.Is; concrete
// values are *ShedError.
var errShed = errors.New("server: overload shed")

// ShedError reports that the load shedder dropped this request before it
// queued: an honest 503 now instead of a likely 504 later.
type ShedError struct {
	Reason     string // "stream", "cold", "deadline"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: overloaded, %s work shed", e.Reason)
}

// Is makes errors.Is(err, errShed) true for every ShedError.
func (e *ShedError) Is(target error) bool { return target == errShed }

// errDraining rejects new work while the server drains for shutdown.
var errDraining = errors.New("server: draining for shutdown")

// tenantDefs declares one tenant's row — the fields of its /stats "tenants"
// entry and its samples in the per-tenant /metrics families — bound to the
// tenant's counters and its charges in the two byte-bounded caches.
func tenantDefs(ts *tenantState, resultBytes, subplanBytes int64) []stat {
	mean := 0.0
	if served := ts.served.Load(); served > 0 {
		mean = float64(ts.latencyUS.Load()) / float64(served)
	}
	state := ts.breaker.State()
	return []stat{
		{key: "requests", name: "tenant_requests_total", kind: kindCounter, help: "Requests received per tenant.", get: val(ts.requests.Load())},
		{key: "ratelimited", name: "tenant_ratelimited_total", kind: kindCounter, help: "Requests rejected by per-tenant token buckets.", get: val(ts.ratelimited.Load())},
		{key: "shed", name: "tenant_shed_total", kind: kindCounter, help: "Requests dropped by the load shedder per tenant.", get: val(ts.shed.Load())},
		{key: "failures", name: "tenant_failures_total", kind: kindCounter, help: "Executed requests that errored or timed out per tenant.", get: val(ts.failures.Load())},
		{key: "breaker_rejects", name: "breaker_rejects_total", kind: kindCounter, help: "Requests rejected by open circuit breakers per tenant.", get: val(ts.breakerRejects.Load())},
		{key: "breaker_opens", name: "breaker_opens_total", kind: kindCounter, help: "Circuit breaker trips per tenant.", get: val(ts.breaker.Opens())},
		{key: "breaker_state", kind: kindInfo, help: "Circuit breaker position: closed, open or half-open.", get: val(state.String())},
		{name: "breaker_state", kind: kindGauge, help: "Circuit breaker position per tenant (0=closed 1=open 2=half-open).", get: val(int(state))},
		{key: "mean_latency_us", kind: kindGauge, help: "Mean wall time of the tenant's completed requests.", get: val(mean)},
		{key: "result_cache_bytes", kind: kindGauge, help: "Result-cache bytes charged to the tenant.", get: val(resultBytes)},
		{key: "subplan_cache_bytes", kind: kindGauge, help: "Subplan-cache bytes charged to the tenant.", get: val(subplanBytes)},
	}
}

// statsJSON renders every live tenant's row for /stats, folding in
// per-tenant cache charges from the two byte-bounded caches.
func (tc *tenantControl) statsJSON(resultBytes, subplanBytes map[string]int64) map[string]any {
	out := make(map[string]any)
	tc.registry.Each(func(id string, ts *tenantState) {
		out[id] = statsJSON(tenantDefs(ts, resultBytes[id], subplanBytes[id]))
	})
	return out
}

// writeProm emits the per-tenant families with manual tenant labels, sorted
// by tenant. The metrics registry is label-free and never learns tenant
// names; emitting from the bounded tenant registry keeps cardinality bounded
// under hostile identity floods.
func (tc *tenantControl) writeProm(w io.Writer) {
	var rows []promRow
	tc.registry.Each(func(id string, ts *tenantState) {
		rows = append(rows, promRow{labels: fmt.Sprintf("tenant=%q", id), defs: tenantDefs(ts, 0, 0)})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
	writeProm(w, tenantDefs(&tenantState{}, 0, 0), rows)
}
