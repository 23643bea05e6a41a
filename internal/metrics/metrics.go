// Package metrics provides the runtime statistics of the Polystore++
// middleware (§IV-D-d of the paper): counters, gauges and one
// fixed-boundary histogram, and the one spelling of the Prometheus text
// format. Each handle is owned by the component that bumps it and declared
// once where it is created; the server's stat table renders them on /stats
// and /metrics. No optimizer reads them yet.
//
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. Lock-free: executor workers
// bump counters on every node execution, so an uncontended atomic add beats
// a mutex acquire on the hot path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0; negative deltas are
// ignored to preserve monotonicity).
func (c *Counter) Add(d int64) {
	if d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The float64 value lives in an
// atomic.Uint64 as its IEEE-754 bits; Add and SetMax are CAS loops, so
// concurrent updates never lose increments and never take a lock.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if larger — a high-watermark update that is
// atomic under concurrent observers (the executor's max-parallelism gauge).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed boundaries. Boundaries are upper
// bounds; an observation lands in the first bucket whose bound is >= value.
// Values beyond the last bound land in the overflow bucket. Observe is
// lock-free (one atomic bucket add plus a CAS'd float sum), so the executor
// and the request path observe without serializing on a mutex.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	sum     Gauge
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// Empty or unsorted bounds panic — bounds are compile-time choices, not
// request data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram bounds must be non-empty and ascending, got %v", bounds))
	}
	return &Histogram{bounds: append([]float64(nil), bounds...), buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1): the upper
// bound of the bucket holding the target observation (the overflow bucket
// clamps to the last bound; an empty histogram reports 0). The buckets are
// read without stopping writers, so a quantile taken under load is
// approximate.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.buckets))
	var n int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for i, c := range counts[:len(h.bounds)] {
		if seen += c; seen > target {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns (count, sum). The count is the sum of the buckets, so it
// always equals what Quantile ranks over.
func (h *Histogram) Snapshot() (n int64, sum float64) {
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n, h.sum.Value()
}
