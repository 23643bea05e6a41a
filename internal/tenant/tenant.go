// Package tenant provides the multi-tenant identity layer of the Polystore++
// serving subsystem: who a request belongs to and how much of the shared
// middleware it is entitled to.
//
// The north star is heavy traffic from many independent callers over one
// runtime, one worker pool, and one set of caches. Everything in this
// package exists so that shared capacity is *attributed*: requests carry a
// tenant id (the X-Tenant header, defaulting to "anon"); admission grants
// worker slots round robin over the tenants that have waiters instead of
// FIFO; a token bucket (Bucket) bounds each tenant's request rate and a
// circuit breaker (Breaker) stops a tenant whose queries keep failing from
// burning worker deadline budget for everyone; and the caches charge
// resident bytes to the tenant that filled them. The server keeps one bucket
// and one breaker per tenant in a bounded LRU (DefaultMaxTenants). A
// deployment that never sets the header degenerates to exactly the
// single-tenant behavior it had before this layer existed: one "anon" flow,
// FIFO order.
//
// The package is a leaf: the server, the core runtime, and the caches all
// import it, so it must import none of them.
package tenant

import (
	"context"
	"net/http"
)

// Anon is the tenant id of requests that carry no identity. Single-tenant
// deployments run entirely as Anon and see pre-tenancy behavior.
const Anon = "anon"

// Invalid is the bucket tenant id assigned to requests whose X-Tenant header
// fails validation. Lumping malformed ids into one tenant bounds metric and
// tenant-table cardinality against hostile header floods: every junk id shares
// one quota instead of minting fresh state.
const Invalid = "invalid"

// Header is the HTTP request header carrying the tenant id.
const Header = "X-Tenant"

// DefaultMaxTenants bounds live per-tenant records: a client minting fresh ids can allocate at most this many,
// after which the least-recently-seen tenant is evicted and its quota and
// breaker reset on return (one fresh burst, never unbounded memory).
const DefaultMaxTenants = 1024

// MaxIDLen bounds accepted tenant ids.
const MaxIDLen = 64

// ValidID reports whether id is a well-formed tenant id: 1..MaxIDLen bytes
// of [A-Za-z0-9._-]. The charset keeps ids safe to embed in metric labels
// and cache keys without escaping.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// FromHTTP resolves the request's tenant id: the X-Tenant header when
// present and well formed, Invalid when present but malformed, Anon when
// absent.
func FromHTTP(r *http.Request) string {
	id := r.Header.Get(Header)
	if id == "" {
		return Anon
	}
	if !ValidID(id) {
		return Invalid
	}
	return id
}

// ctxKey carries the tenant id through context.Context into layers below
// the server (the subplan cache charges publications to the executing
// request's tenant).
type ctxKey struct{}

// With returns a context carrying the tenant id.
func With(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// From returns the tenant id carried by ctx, or Anon when none is set — so
// direct Runtime users (tests, embedders) charge as the anonymous tenant.
func From(ctx context.Context) string {
	if id, ok := ctx.Value(ctxKey{}).(string); ok && id != "" {
		return id
	}
	return Anon
}
