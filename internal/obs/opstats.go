package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/metrics"
)

// latBoundsUS are the per-operator latency buckets: exponential upper
// bounds in microseconds, 10µs .. 10s, chosen to straddle both cached
// sub-millisecond node executions and multi-second scans. Observations
// beyond the last bound land in the overflow bucket and quantiles clamp to
// the last bound.
var latBoundsUS = []float64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 1_000_000, 10_000_000,
}

// OpEntry aggregates one (engine, op-kind) pair. Its counts are lock-free so
// the executor's hot path observes without taking a lock; the execution
// count is the latency histogram's. Readers load the fields without
// stopping writers, so a row read under load is approximate.
type OpEntry struct {
	Engine, Op                                    string
	RowsIn, RowsOut, BytesIn, BytesOut, WallNanos atomic.Int64
	MaxParts                                      metrics.Gauge
	Latency                                       *metrics.Histogram // whole microseconds per execution
}

// Obs is one node execution's contribution to the aggregates.
type Obs struct {
	Wall     time.Duration
	RowsIn   int64
	RowsOut  int64
	BytesIn  int64
	BytesOut int64
	Parts    int
}

// OpStats aggregates per-(engine, op-kind) execution statistics across every
// plan the runtime executes — always on, unlike tracing. The server's stat
// table renders one row per entry on /stats (op_stats, which benchdiff -attr
// diffs) and /metrics. The zero value is not usable; construct with
// NewOpStats.
type OpStats struct {
	mu sync.RWMutex
	m  map[opKey]*OpEntry
}

type opKey struct{ engine, op string }

// NewOpStats returns an empty set of aggregates.
func NewOpStats() *OpStats {
	return &OpStats{m: make(map[opKey]*OpEntry)}
}

// Observe folds one node execution into the (engine, op) aggregate. The
// steady-state cost is one RLock'd map read plus a handful of atomic adds.
func (s *OpStats) Observe(engine, op string, o Obs) {
	k := opKey{engine, op}
	s.mu.RLock()
	e := s.m[k]
	s.mu.RUnlock()
	if e == nil {
		s.mu.Lock()
		if e = s.m[k]; e == nil {
			e = &OpEntry{Engine: engine, Op: op, Latency: metrics.NewHistogram(latBoundsUS)}
			s.m[k] = e
		}
		s.mu.Unlock()
	}
	e.RowsIn.Add(o.RowsIn)
	e.RowsOut.Add(o.RowsOut)
	e.BytesIn.Add(o.BytesIn)
	e.BytesOut.Add(o.BytesOut)
	e.WallNanos.Add(o.Wall.Nanoseconds())
	e.MaxParts.SetMax(float64(o.Parts))
	e.Latency.Observe(float64(o.Wall.Microseconds()))
}

// Entries lists every aggregate, in no particular order.
func (s *OpStats) Entries() []*OpEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*OpEntry, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, e)
	}
	return out
}
