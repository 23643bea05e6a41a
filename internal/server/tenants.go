// Per-tenant serving state: every request resolves (via X-Tenant) to one
// tenantState holding its token bucket, circuit breaker, and counters. The
// set is a bounded LRU (identity floods evict the least-recently-seen tenant
// instead of growing without bound), and per-tenant observability is
// emitted from snapshots of it as labelled rows of fixed families, so
// hostile ids cannot mint metric families.
//
// A query's way in is one protocol: enter (rate, then breaker) hands back a
// ticket or a refusal; admission.acquire (shed, queue) a worker slot or a
// refusal; and the ticket's done, deferred by the handler, gives the breaker
// its outcome — or just its probe back — on every way out.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/lru"
	"polystorepp/internal/metrics"
	"polystorepp/internal/relational"
	"polystorepp/internal/tenant"
)

// tenantState is one tenant's live serving state.
type tenantState struct {
	id      string
	bucket  *tenant.Bucket  // nil-safe: unlimited when rate <= 0
	breaker *tenant.Breaker // nil only in the zero rows of countRefusal and writeProm

	requests       atomic.Int64
	ratelimited    atomic.Int64
	shed           atomic.Int64
	breakerRejects atomic.Int64
	failures       atomic.Int64 // exec errors + deadline expiries
	served         atomic.Int64 // completed (non-refused) requests
	latencyUS      atomic.Int64 // summed wall time of served requests
}

// tenantControl owns the bounded set of per-tenant records.
type tenantControl struct {
	cfg    Config
	states *lru.Cache[*tenantState]
}

func newTenantControl(cfg Config) *tenantControl {
	return &tenantControl{cfg: cfg, states: lru.New[*tenantState](tenant.DefaultMaxTenants)}
}

// state returns (building if first seen) the tenant's record. Two first
// requests of one tenant may both build a record; Put keeps the one stored
// first, and both use it.
func (tc *tenantControl) state(id string) *tenantState {
	if ts, ok := tc.states.Get(id); ok {
		return ts
	}
	q, ok := tc.cfg.TenantQuotas[id]
	if !ok {
		q = tenant.Quota{Rate: tc.cfg.TenantRate, Burst: tc.cfg.TenantBurst}
	}
	ts := &tenantState{id: id, bucket: tenant.NewBucket(q.Rate, q.Burst), breaker: new(tenant.Breaker)}
	return tc.states.Put(id, ts)
}

// len returns the number of live tenant records.
func (tc *tenantControl) len() int { return tc.states.Len() }

// enterRate counts the request and charges the tenant's token bucket — the
// one entitlement queries and writes share. /ingest stops here: ingest
// failures are validation errors, not worker-budget burn, so writes skip
// the breaker.
func (ts *tenantState) enterRate(now time.Time) *refusal {
	ts.requests.Add(1)
	if ok, retry := ts.bucket.Allow(now); !ok {
		return &refusal{
			status:     http.StatusTooManyRequests,
			cause:      causeRate,
			msg:        fmt.Sprintf("tenant %q over its request rate", ts.id),
			retryAfter: retry,
		}
	}
	return nil
}

// enter runs a query's pre-execution gates: the tenant's rate gate, then its
// circuit breaker. An admitted query holds a ticket, and owes it one done.
func (ts *tenantState) enter(now time.Time) (ticket, *refusal) {
	if ref := ts.enterRate(now); ref != nil {
		return ticket{}, ref
	}
	if ok, retry := ts.breaker.Allow(now); !ok {
		return ticket{}, &refusal{
			status:     http.StatusServiceUnavailable,
			cause:      causeBreaker,
			msg:        fmt.Sprintf("tenant %q circuit breaker open", ts.id),
			retryAfter: retry,
		}
	}
	return ticket{ts: ts, t0: now}, nil
}

// ticket is an admitted query's standing with its tenant's breaker: it may
// be holding one of the half-open probe slots, which only done returns.
type ticket struct {
	ts *tenantState
	t0 time.Time
}

// outcome is what an admitted query turned out to be, to its tenant.
type outcome uint8

const (
	// neutral: refused further in, or malformed and never run. Feeds
	// neither the breaker's window nor the tenant's latency.
	neutral outcome = iota
	// served: completed — including with a client-side error (compile or
	// statement error, cancellation), which burns no worker budget worth a
	// breaker.
	served
	// failed: executed and errored, or ran out its deadline — the outcomes
	// a circuit breaker exists to stop paying for.
	failed
)

// outcomeOf classifies a runQuery result.
func outcomeOf(err error) outcome {
	switch {
	case err == nil,
		errors.Is(err, compiler.ErrCompile), // malformed query: cheap, pre-execution
		isStatementError(err),               // malformed query the engine found at execution
		errors.Is(err, context.Canceled):    // client went away
		return served
	case errors.As(err, new(*refusal)): // allocated only here, not for a nil err
		return neutral
	}
	return failed // execution error or context.DeadlineExceeded
}

// done settles the ticket: a completed query's wall time and success feed
// the tenant's latency and breaker; a neutral one only hands its probe back.
func (tk ticket) done(o outcome) {
	ts := tk.ts
	if o == neutral {
		ts.breaker.Release()
		return
	}
	now := time.Now()
	ts.served.Add(1)
	ts.latencyUS.Add(now.Sub(tk.t0).Microseconds())
	if o == failed {
		ts.failures.Add(1)
	}
	ts.breaker.Record(now, o == served)
}

// countRefusal bumps the global and the per-tenant counter of r's cause; no
// counter of a refusal moves anywhere else. ts is nil where no tenant was
// resolved (draining).
func (s *Server) countRefusal(r *refusal, ts *tenantState) {
	if ts == nil {
		ts = new(tenantState)
	}
	st := &s.st
	row := [...]struct {
		global   *metrics.Counter
		rejected bool // also counted under "rejected"
		tenant   *atomic.Int64
	}{
		causeRate:         {st.tenantRate, true, &ts.ratelimited},
		causeBreaker:      {st.tenantBreaker, false, &ts.breakerRejects},
		causeShedCold:     {st.shedCold, true, &ts.shed},
		causeShedDeadline: {st.shedDeadline, true, &ts.shed},
		causeQueueFull:    {st.rejected, false, nil},
		causeLeadersGone:  {st.execErrors, false, nil},
		causeDraining:     {st.drainRejected, false, nil},
	}[r.cause]
	row.global.Inc()
	if row.rejected {
		st.rejected.Inc()
	}
	if row.tenant != nil {
		row.tenant.Add(1)
	}
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

// tenantDefs declares one tenant's row — the fields of its /stats "tenants"
// entry and its samples in the per-tenant /metrics families — bound to the
// tenant's counters and its subplan-cache charge.
func tenantDefs(ts *tenantState, subplanBytes int64) []stat {
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
		{key: "subplan_cache_bytes", kind: kindGauge, help: "Subplan-cache bytes charged to the tenant.", get: val(subplanBytes)},
	}
}

// statsJSON renders every live tenant's row for /stats, folding in
// per-tenant subplan-cache charges.
func (tc *tenantControl) statsJSON(subplanBytes map[string]int64) map[string]any {
	out := make(map[string]any)
	for _, ts := range tc.states.Values() {
		out[ts.id] = statsJSON(tenantDefs(ts, subplanBytes[ts.id]))
	}
	return out
}

// writeProm emits the per-tenant families with manual tenant labels;
// emitting from the bounded tenant set keeps cardinality bounded under
// hostile identity floods.
func (tc *tenantControl) writeProm(w io.Writer) {
	var rows []promRow
	for _, ts := range tc.states.Values() {
		rows = append(rows, promRow{labels: fmt.Sprintf("tenant=%q", ts.id), defs: tenantDefs(ts, 0)})
	}
	writeProm(w, tenantDefs(&tenantState{}, 0), rows)
}
