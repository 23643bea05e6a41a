// Package timeseries implements the timeseries engine of the polystore (the
// TimescaleDB role: clickstreams in Figure 1, bedside-monitor vitals in the
// MIMIC workload of Figure 2). Points are stored in per-series chunks with
// delta-of-delta timestamp compression; queries are range scans and windowed
// aggregations.
package timeseries

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"polystorepp/internal/partition"
)

// Sentinel errors.
var (
	ErrNoSeries   = errors.New("timeseries: series not found")
	ErrOutOfOrder = errors.New("timeseries: timestamp not after last point")
	ErrBadWindow  = errors.New("timeseries: invalid window")
)

// Point is one (timestamp, value) sample. Timestamps are nanoseconds.
type Point struct {
	TS    int64
	Value float64
}

// chunkSize is the number of points per compressed chunk.
const chunkSize = 512

// chunk holds up to chunkSize points with delta-of-delta encoded
// timestamps: ts[0], d0 = ts[1]-ts[0], then second-order deltas.
type chunk struct {
	first   int64
	deltas  []int64 // second-order deltas, len = n-1 (first entry is d0)
	values  []float64
	lastTS  int64
	lastDel int64
}

func (c *chunk) append(ts int64, v float64) error {
	if len(c.values) == 0 {
		c.first = ts
		c.lastTS = ts
		c.values = append(c.values, v)
		return nil
	}
	if ts <= c.lastTS {
		return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, ts, c.lastTS)
	}
	delta := ts - c.lastTS
	if len(c.values) == 1 {
		c.deltas = append(c.deltas, delta)
	} else {
		c.deltas = append(c.deltas, delta-c.lastDel)
	}
	c.lastDel = delta
	c.lastTS = ts
	c.values = append(c.values, v)
	return nil
}

// walk calls fn on each point of the chunk in time order, rebuilding the
// timestamps from the delta-of-delta encoding as it goes; nothing is
// materialized. It is the one decoder of the encoding.
func (c *chunk) walk(fn func(ts int64, v float64)) {
	ts, delta := c.first, int64(0)
	for i, v := range c.values {
		if i > 0 {
			delta += c.deltas[i-1]
			ts += delta
		}
		fn(ts, v)
	}
}

func (c *chunk) full() bool { return len(c.values) >= chunkSize }

// series is one named stream of points.
type series struct {
	chunks []*chunk
}

// append adds pts in order and returns how many it applied. It stops at the
// first point not after its predecessor, leaving the prefix applied. Each
// chunk the batch reaches grows once, by the points that land in it.
func (s *series) append(pts []Point) (int, error) {
	applied := 0
	for applied < len(pts) {
		if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].full() {
			// A fresh chunk has no lastTS of its own, so the strictly-increasing
			// check must compare against the previous chunk here — otherwise a
			// stale timestamp arriving exactly at a chunk boundary would slip in
			// and break the chunks-are-time-ordered invariant the window fold
			// and range stitch rely on.
			if n := len(s.chunks); n > 0 && pts[applied].TS <= s.chunks[n-1].lastTS {
				return applied, fmt.Errorf("%w: %d after %d", ErrOutOfOrder, pts[applied].TS, s.chunks[n-1].lastTS)
			}
			s.chunks = append(s.chunks, &chunk{})
		}
		c := s.chunks[len(s.chunks)-1]
		batch := pts[applied:min(len(pts), applied+chunkSize-len(c.values))]
		c.values = slices.Grow(c.values, len(batch))
		c.deltas = slices.Grow(c.deltas, len(batch))
		for _, p := range batch {
			if err := c.append(p.TS, p.Value); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}

// Store is a collection of named series. Safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	name   string
	series map[string]*series
	// version counts appends; the subplan cache keys on it (see Version).
	version uint64
	// journal, when installed, receives every applied append as an encoded
	// record (durability tap; see durable.go). Guarded by mu.
	journal func(record []byte)
}

// New returns an empty store.
func New(name string) *Store {
	return &Store{name: name, series: make(map[string]*series)}
}

// Name returns the store instance name.
func (s *Store) Name() string { return s.name }

// Append adds one point to the named series (created on first use).
// Timestamps within a series must be strictly increasing.
func (s *Store) Append(name string, ts int64, v float64) error {
	return s.AppendPoints(name, []Point{{TS: ts, Value: v}})
}

// AppendPoints adds pts to the named series in order, under one lock: the
// same points, versions and journal records as a loop of Append. It stops at
// the first point not after its predecessor and returns Append's error,
// leaving the points before it applied. An empty pts changes nothing.
func (s *Store) AppendPoints(name string, pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.seriesLocked(name).append(pts)
	for _, p := range pts[:n] {
		s.version++
		if s.journal != nil {
			s.journal(record(name, p.TS, p.Value, s.version))
		}
	}
	return err
}

// seriesLocked returns the named series, creating it on first use. Caller
// holds the write lock.
func (s *Store) seriesLocked(name string) *series {
	sr, ok := s.series[name]
	if !ok {
		sr = &series{}
		s.series[name] = sr
	}
	return sr
}

// Version returns the store's monotonic mutation count. The subplan cache
// keys on it, so appends invalidate cached query results.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// SeriesNames returns the sorted series names.
func (s *Store) SeriesNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for n := range s.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Range returns the points of the series with from <= TS <= to. Candidate
// chunks (already time-ordered) are decoded in parallel over the shared scan
// pool — one task per time-range slab of chunks — and stitched back in chunk
// order, so the result is identical to a sequential decode. The read lock is
// held throughout: chunks are only mutated by appends, which take the write
// lock.
func (s *Store) Range(name string, from, to int64) ([]Point, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr, ok := s.series[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	var cands []*chunk
	for _, c := range sr.chunks {
		if c.lastTS < from || c.first > to {
			continue
		}
		cands = append(cands, c)
	}
	return rangeChunks(cands, from, to, 0), nil
}

// rangeChunks decodes the candidate chunks and keeps points in [from, to].
// parts <= 0 selects the fan-out automatically from the decoded volume.
func rangeChunks(cands []*chunk, from, to int64, parts int) []Point {
	pool := partition.Shared()
	parts = partition.Effective(len(cands)*chunkSize, parts)
	if parts > len(cands) {
		parts = len(cands)
	}
	if parts <= 1 {
		out := make([]Point, 0, 64)
		for _, c := range cands {
			out = appendRange(out, c, from, to)
		}
		return out
	}
	ranges := partition.Split(len(cands), parts)
	slabs := make([][]Point, len(ranges))
	// Decoding cannot fail; Do's only error source is a canceled context,
	// and Background never cancels.
	_ = pool.Do(context.Background(), len(ranges), func(i int) error {
		var out []Point
		for _, c := range cands[ranges[i].Lo:ranges[i].Hi] {
			out = appendRange(out, c, from, to)
		}
		slabs[i] = out
		return nil
	})
	total := 0
	for _, sl := range slabs {
		total += len(sl)
	}
	out := make([]Point, 0, total)
	for _, sl := range slabs {
		out = append(out, sl...)
	}
	return out
}

// appendRange appends the chunk's in-range points to dst.
func appendRange(dst []Point, c *chunk, from, to int64) []Point {
	c.walk(func(ts int64, v float64) {
		if ts >= from && ts <= to {
			dst = append(dst, Point{TS: ts, Value: v})
		}
	})
	return dst
}

// AggKind selects the aggregation of a window.
type AggKind int

// AggMean averages a window's points.
const AggMean AggKind = 1

// WindowResult is one aggregated window [Start, Start+Width) of N points.
// While windowChunks folds, Value is the window's running sum; WindowN
// turns it into the mean.
type WindowResult struct {
	Start int64
	Value float64
	N     int
}

// chunkWindowPartials sums one chunk's in-range points into per-window
// partials. Points in a chunk are strictly time-ordered, so the buckets come
// out in ascending start order.
func chunkWindowPartials(c *chunk, from, to, width int64) []WindowResult {
	var out []WindowResult
	c.walk(func(ts int64, v float64) {
		if ts < from || ts > to {
			return
		}
		// ts >= from, so the offset from from is exact as a uint64, where
		// ts-from in int64 arithmetic would wrap past MaxInt64.
		start := from + int64(uint64(ts-from)/uint64(width)*uint64(width))
		if n := len(out); n == 0 || out[n-1].Start != start {
			out = append(out, WindowResult{Start: start})
		}
		w := &out[len(out)-1]
		w.Value += v
		w.N++
	})
	return out
}

// windowChunks computes the window partials of the candidate chunks: the
// per-chunk partials are computed in parallel over the shared scan pool —
// one task per chunk slab, during the decode that Range already
// parallelizes — and folded strictly in chunk order. parts <= 0 selects the
// fan-out automatically from the decoded volume.
//
// Because partials are per *chunk* and the fold always walks chunks
// left-to-right, the task fan-out only changes which worker decodes which
// chunk — never the shape of any floating-point reduction — so results are
// byte-identical at any partition count.
func windowChunks(cands []*chunk, from, to, width int64, parts int) []WindowResult {
	perChunk := make([][]WindowResult, len(cands))
	pool := partition.Shared()
	parts = partition.Effective(len(cands)*chunkSize, parts)
	if parts > len(cands) {
		parts = len(cands)
	}
	if parts <= 1 {
		for i, c := range cands {
			perChunk[i] = chunkWindowPartials(c, from, to, width)
		}
	} else {
		ranges := partition.Split(len(cands), parts)
		// Decoding cannot fail; Do's only error source is a canceled
		// context, and Background never cancels.
		_ = pool.Do(context.Background(), len(ranges), func(i int) error {
			for ci := ranges[i].Lo; ci < ranges[i].Hi; ci++ {
				perChunk[ci] = chunkWindowPartials(cands[ci], from, to, width)
			}
			return nil
		})
	}
	// Chunks of a series are time-ordered and disjoint, so each chunk's
	// bucket list ascends and only the boundary bucket can repeat across
	// adjacent chunks: the merged list stays sorted with a single pass and
	// no sort. Sums add in chunk order.
	var out []WindowResult
	for _, ps := range perChunk {
		for _, p := range ps {
			if n := len(out); n > 0 && out[n-1].Start == p.Start {
				out[n-1].Value += p.Value
				out[n-1].N += p.N
			} else {
				out = append(out, p)
			}
		}
	}
	return out
}

// WindowN aggregates the series into tumbling windows of the given width
// (nanoseconds) across [from, to], starting on from's grid. The aggregation
// runs over per-chunk partial aggregates computed during the parallel chunk
// decode and combined in chunk order (windowChunks), so results are
// deterministic and windows come out already sorted by start. parts is the
// partition fan-out of the per-chunk partial computation: 0 selects
// automatically from the decoded volume, 1 forces a sequential fold, larger
// values pin the task count (clamped to the candidate chunk count). Results
// are byte-identical at any value — the equivalence the parallel window fold
// guarantees — so the knob exists for tuning and for the equivalence tests
// that pin that guarantee.
func (s *Store) WindowN(name string, from, to, width int64, agg AggKind, parts int) ([]WindowResult, error) {
	if width <= 0 {
		return nil, fmt.Errorf("%w: width %d", ErrBadWindow, width)
	}
	if agg != AggMean {
		return nil, fmt.Errorf("%w: aggregation %d", ErrBadWindow, agg)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr, ok := s.series[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	var cands []*chunk
	for _, c := range sr.chunks {
		if c.lastTS < from || c.first > to {
			continue
		}
		cands = append(cands, c)
	}
	out := windowChunks(cands, from, to, width, parts)
	for i := range out {
		out[i].Value /= float64(out[i].N) // no window is emitted empty
	}
	return out, nil
}
