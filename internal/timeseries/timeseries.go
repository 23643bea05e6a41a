// Package timeseries implements the timeseries engine of the polystore (the
// TimescaleDB role: clickstreams in Figure 1, bedside-monitor vitals in the
// MIMIC workload of Figure 2). Points are stored in per-series chunks with
// delta-of-delta timestamp compression; queries are range scans, windowed
// aggregations and the per-entity summary fold (Summary).
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
			// and chunksIn rely on.
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

// chunksIn returns the series' chunks holding points in [from, to]. Chunks
// are time-ordered and disjoint, so they are one contiguous run.
func (sr *series) chunksIn(from, to int64) []*chunk {
	lo := sort.Search(len(sr.chunks), func(i int) bool { return sr.chunks[i].lastTS >= from })
	hi := sort.Search(len(sr.chunks), func(i int) bool { return sr.chunks[i].first > to })
	return sr.chunks[lo:max(lo, hi)]
}

// Range returns the points of the series with from <= TS <= to, in time
// order. The read lock is held throughout: chunks are only mutated by
// appends, which take the write lock.
func (s *Store) Range(name string, from, to int64) ([]Point, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr, ok := s.series[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	out := make([]Point, 0, 64)
	for _, c := range sr.chunksIn(from, to) {
		c.walk(func(ts int64, v float64) {
			if ts >= from && ts <= to {
				out = append(out, Point{TS: ts, Value: v})
			}
		})
	}
	return out, nil
}

// Summary is one row per numeric entity id and one mean column per metric.
type Summary struct {
	IDs     []int64     // entity ids, in the string order of their names
	Metrics []string    // sorted metric names
	Means   [][]float64 // Means[m][row]: the mean of Metrics[m] for IDs[row], 0 if it has none
	Points  int64       // points folded, those of skipped ids included
}

// Summary folds every series named "<prefix><id>/<metric>" into the mean of
// its points in [MinInt64/2, MaxInt64/2], summed in time order and without
// materializing them. The fold holds the read lock once, so the summary is
// one cut of the store: it never shows an append without an earlier one. A
// name without a "/<metric>" part is ignored; an id that is not a decimal
// int64 gets no row, though its points and metric still count.
func (s *Store) Summary(prefix string) Summary {
	const from, to = math.MinInt64 / 2, math.MaxInt64 / 2
	type mean struct {
		id, metric string
		v          float64
	}
	var out Summary
	s.mu.RLock()
	found := make([]mean, 0, len(s.series)) // at most one per series
	for name, sr := range s.series {
		rest, ok := strings.CutPrefix(name, prefix)
		id, metric, named := strings.Cut(rest, "/")
		if !ok || !named {
			continue
		}
		m, n := mean{id: id, metric: metric}, 0
		for _, c := range sr.chunksIn(from, to) {
			c.walk(func(ts int64, v float64) {
				if ts >= from && ts <= to {
					m.v += v
					n++
				}
			})
		}
		if n > 0 {
			m.v /= float64(n)
		}
		found = append(found, m)
		out.Points += int64(n)
	}
	s.mu.RUnlock()

	slices.SortFunc(found, func(a, b mean) int { return strings.Compare(a.id, b.id) })
	entities := 0
	for i, f := range found {
		if i == 0 || f.id != found[i-1].id { // an entity's series are adjacent
			entities++
		}
		if m, ok := slices.BinarySearch(out.Metrics, f.metric); !ok {
			out.Metrics = slices.Insert(out.Metrics, m, f.metric)
		}
	}
	out.IDs = make([]int64, 0, entities)
	out.Means = make([][]float64, len(out.Metrics))
	for m := range out.Means {
		out.Means[m] = make([]float64, 0, entities)
	}
	skip := false
	for i, f := range found {
		if i == 0 || f.id != found[i-1].id {
			id, err := strconv.ParseInt(f.id, 10, 64)
			if skip = err != nil; !skip {
				out.IDs = append(out.IDs, id)
				for m := range out.Means {
					out.Means[m] = append(out.Means[m], 0)
				}
			}
		}
		if !skip {
			m, _ := slices.BinarySearch(out.Metrics, f.metric)
			out.Means[m][len(out.IDs)-1] = f.v
		}
	}
	return out
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

// windowChunks folds the in-range points of the candidate chunks into
// windows, in one pass in time order. Chunks of a series are time-ordered and
// disjoint, so the windows come out in ascending start order with no sort,
// and each window's sum is a plain loop's over its points.
func windowChunks(cands []*chunk, from, to, width int64) []WindowResult {
	var out []WindowResult
	for _, c := range cands {
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
	}
	return out
}

// WindowN aggregates the series into tumbling windows of the given width
// (nanoseconds) across [from, to], starting on from's grid, in ascending
// start order (windowChunks). parts is unused: the fold has one path. The
// parameter stays only because the benchmark harness in bench/ calls WindowN
// with it, and it goes when WindowN does.
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
	out := windowChunks(sr.chunksIn(from, to), from, to, width)
	for i := range out {
		out[i].Value /= float64(out[i].N) // no window is emitted empty
	}
	return out, nil
}
