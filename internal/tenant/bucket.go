package tenant

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Quota is one tenant's entitlement: a request-rate token bucket. The zero
// value means "unlimited rate" — the degenerate single-tenant configuration.
type Quota struct {
	// Rate is the sustained request rate in tokens per second; <= 0 means
	// unlimited (the bucket always admits).
	Rate float64
	// Burst is the bucket capacity — how many requests may arrive at once
	// after an idle period. Clamped to at least 1 when Rate > 0.
	Burst float64
}

// Bucket is a token bucket refilled on the monotonic clock (time.Time
// arithmetic in Go uses the monotonic reading, so wall-clock jumps cannot
// mint or destroy tokens). Safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket returns a bucket that admits rate requests per second with the
// given burst capacity, starting full. rate <= 0 builds an unlimited bucket.
func NewBucket(rate, burst float64) *Bucket {
	if rate > 0 && burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// Allow takes one token at time now. When the bucket is empty it reports
// false plus how long until one token refills — the honest Retry-After
// value for a 429.
func (b *Bucket) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil || b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// ParseQuotas parses a per-tenant quota override spec of the form
//
//	tenantA=rate:burst,tenantB=rate:burst
//
// Rate is requests/second (0 = unlimited), burst the bucket capacity. Each
// must be a finite number: NaN or an infinity is refused, naming the field.
func ParseQuotas(spec string) (map[string]Quota, error) {
	out := make(map[string]Quota)
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rest, ok := strings.Cut(part, "=")
		fields := strings.Split(rest, ":")
		if !ok || !ValidID(id) || len(fields) != 2 {
			return nil, fmt.Errorf("tenant: bad quota entry %q (want tenant=rate:burst)", part)
		}
		var v [2]float64 // rate, burst
		for i, f := range fields {
			name := [...]string{"rate", "burst"}[i]
			x, err := strconv.ParseFloat(f, 64)
			if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
				err = errors.New("not a finite number")
			}
			if err != nil {
				return nil, fmt.Errorf("tenant: bad %s in %q: %v", name, part, err)
			}
			v[i] = x
		}
		out[id] = Quota{Rate: v[0], Burst: v[1]}
	}
	return out, nil
}
