package obs

import (
	"io"
	"sort"
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

// opEntry aggregates one (engine, op-kind) pair. All fields are lock-free so
// the executor's hot path observes without taking a lock; the execution
// count is the latency histogram's.
type opEntry struct {
	rowsIn    atomic.Int64
	rowsOut   atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	wallNanos atomic.Int64
	maxParts  metrics.Gauge
	lat       *metrics.Histogram // whole microseconds per execution
}

// Obs is one node execution's contribution to the registry.
type Obs struct {
	Wall     time.Duration
	RowsIn   int64
	RowsOut  int64
	BytesIn  int64
	BytesOut int64
	Parts    int
}

// OpStats aggregates per-(engine, op-kind) execution statistics across every
// plan the runtime executes — always on, unlike tracing, because /stats,
// /metrics and benchdiff -attr read these aggregates. The zero value is not
// usable; construct with NewOpStats.
type OpStats struct {
	mu sync.RWMutex
	m  map[opKey]*opEntry
}

type opKey struct{ engine, op string }

// NewOpStats returns an empty registry.
func NewOpStats() *OpStats {
	return &OpStats{m: make(map[opKey]*opEntry)}
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
			e = &opEntry{lat: metrics.NewHistogram(latBoundsUS)}
			s.m[k] = e
		}
		s.mu.Unlock()
	}
	e.rowsIn.Add(o.RowsIn)
	e.rowsOut.Add(o.RowsOut)
	e.bytesIn.Add(o.BytesIn)
	e.bytesOut.Add(o.BytesOut)
	e.wallNanos.Add(o.Wall.Nanoseconds())
	e.maxParts.SetMax(float64(o.Parts))
	e.lat.Observe(float64(o.Wall.Microseconds()))
}

// OpSnapshot is the rendered aggregate of one (engine, op-kind) pair — the
// schema /stats exposes under "op_stats" and benchdiff -attr diffs.
type OpSnapshot struct {
	Engine      string  `json:"engine"`
	Op          string  `json:"op"`
	Count       int64   `json:"count"`
	RowsIn      int64   `json:"rows_in"`
	RowsOut     int64   `json:"rows_out"`
	BytesIn     int64   `json:"bytes_in"`
	BytesOut    int64   `json:"bytes_out"`
	WallSeconds float64 `json:"wall_seconds"`
	P50US       int64   `json:"p50_us"`
	P95US       int64   `json:"p95_us"`
	P99US       int64   `json:"p99_us"`
	MaxParts    int64   `json:"max_parts,omitempty"`
}

// Snapshot renders every aggregate keyed "engine/op". Fields are read
// without stopping writers, so a snapshot taken under load is approximate — fine for its
// consumers (dashboards, regression attribution).
func (s *OpStats) Snapshot() map[string]OpSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]OpSnapshot, len(s.m))
	for k, e := range s.m {
		n, _ := e.lat.Snapshot()
		out[k.engine+"/"+k.op] = OpSnapshot{
			Engine:      k.engine,
			Op:          k.op,
			Count:       n,
			RowsIn:      e.rowsIn.Load(),
			RowsOut:     e.rowsOut.Load(),
			BytesIn:     e.bytesIn.Load(),
			BytesOut:    e.bytesOut.Load(),
			WallSeconds: float64(e.wallNanos.Load()) / 1e9,
			P50US:       int64(e.lat.Quantile(0.50)),
			P95US:       int64(e.lat.Quantile(0.95)),
			P99US:       int64(e.lat.Quantile(0.99)),
			MaxParts:    int64(e.maxParts.Value()),
		}
	}
	return out
}

// WriteProm renders the registry as Prometheus text families, one set per
// (engine, op): _count, _wall_seconds_total, _rows_out_total and the p95
// latency gauge.
func (s *OpStats) WriteProm(w io.Writer) {
	snap := s.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := snap[k]
		base := metrics.SanitizeMetricName("core.op." + o.Engine + "." + o.Op)
		of := " of " + o.Op + " on engine " + o.Engine + "."
		for _, f := range []struct {
			suffix, typ, help string
			value             any
		}{
			{"_count", "counter", "Executions", o.Count},
			{"_wall_seconds_total", "counter", "Summed host wall time", o.WallSeconds},
			{"_rows_out_total", "counter", "Rows produced by executions", o.RowsOut},
			{"_p95_us", "gauge", "p95 latency in microseconds", o.P95US},
		} {
			metrics.WriteHeader(w, base+f.suffix, f.typ, f.help+of)
			metrics.WriteSample(w, base+f.suffix, "", f.value)
		}
	}
}
