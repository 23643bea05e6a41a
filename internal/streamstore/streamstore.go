// Package streamstore implements the stream engine of the polystore (the
// Saber role of §II-B and the "Stream Store" of Figure 2): append-only
// event logs with sliding/tumbling window operators over them. The window
// operators are the KWindowAgg kernels the FPGA model accelerates.
package streamstore

import (
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors.
var (
	ErrNoStream  = errors.New("streamstore: stream not found")
	ErrBadWindow = errors.New("streamstore: invalid window spec")
)

// Event is one element of a stream.
type Event struct {
	TS    int64 // event time, nanoseconds
	Key   string
	Value float64
}

// Store is a set of named append-only streams. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	name    string
	streams map[string][]Event
	// version counts appends; see Version.
	version uint64
}

// New returns an empty stream store.
func New(name string) *Store {
	return &Store{name: name, streams: make(map[string][]Event)}
}

// Name returns the store instance name.
func (s *Store) Name() string { return s.name }

// Append adds events to the named stream (created on first use) and returns
// the new log length.
func (s *Store) Append(stream string, events ...Event) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams[stream] = append(s.streams[stream], events...)
	if len(events) > 0 {
		s.version++
	}
	return len(s.streams[stream])
}

// Version returns the store's monotonic mutation count. The serving layer
// keys result caches on it, so appends invalidate cached window results.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// WindowSpec configures a window computation. Width is the window size in
// event-time nanoseconds; Slide is the hop (Slide == Width gives tumbling
// windows). Sliding windows emit one result per hop.
type WindowSpec struct {
	Width int64
	Slide int64
}

// Validate checks the spec.
func (w WindowSpec) Validate() error {
	if w.Width <= 0 || w.Slide <= 0 || w.Slide > w.Width {
		return fmt.Errorf("%w: width=%d slide=%d", ErrBadWindow, w.Width, w.Slide)
	}
	return nil
}

// WindowOut is one window result per key.
type WindowOut struct {
	Start int64
	Key   string
	Sum   float64
	Count int
	Min   float64
	Max   float64
}

// Mean returns the window mean.
func (w WindowOut) Mean() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// WindowAggregate computes per-key aggregates over the windows covering
// [from, to). Results are ordered by (window start, key insertion order
// within window discovery) — deterministic for a fixed log.
func (s *Store) WindowAggregate(stream string, from, to int64, spec WindowSpec) ([]WindowOut, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	log, ok := s.streams[stream]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNoStream, stream)
	}
	events := make([]Event, len(log))
	copy(events, log)
	s.mu.RUnlock()

	type wk struct {
		start int64
		key   string
	}
	acc := make(map[wk]*WindowOut)
	var order []wk
	for _, e := range events {
		if e.TS < from || e.TS >= to {
			continue
		}
		// An event belongs to every window whose [start, start+Width)
		// contains it; starts lie Slide apart on from's grid, from on. Offsets
		// from from are uint64: e.TS >= from, so off is exact where int64
		// arithmetic on times near the ends of the range would wrap.
		off, slide, width := uint64(e.TS-from), uint64(spec.Slide), uint64(spec.Width)
		for s := off / slide * slide; off-s < width; s -= slide {
			start := from + int64(s)
			k := wk{start: start, key: e.Key}
			w, ok := acc[k]
			if !ok {
				w = &WindowOut{Start: start, Key: e.Key, Min: e.Value, Max: e.Value}
				acc[k] = w
				order = append(order, k)
			}
			w.Sum += e.Value
			w.Count++
			if e.Value < w.Min {
				w.Min = e.Value
			}
			if e.Value > w.Max {
				w.Max = e.Value
			}
			if s < slide { // the next start would precede from
				break
			}
		}
	}
	out := make([]WindowOut, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out, nil
}
