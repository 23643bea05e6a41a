// Package obs is the end-to-end observability layer of the Polystore++
// middleware: request-scoped execution traces carried through
// context.Context from server admission down into the executors, adapters
// and the partition pool, plus the aggregated per-(engine, op-kind) runtime
// statistics (OpStats) that the paper's §IV-D-d names as the optimizer's
// input. Here they are reported on /stats and /metrics; no optimizer reads
// them yet.
//
// Tracing is strictly opt-in and zero-cost when off: From returns nil for
// an untouched context, and every method on a nil *Trace is a no-op, so the
// hot path pays one pointer-valued context lookup per plan execution and
// nothing per node.
package obs

import (
	"context"
	"sync"
	"time"
)

// traceKey is the context key Trace travels under.
type traceKey struct{}

// With returns a context carrying tr. A nil tr returns ctx unchanged, so
// callers can thread an optional trace without branching.
func With(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// From returns the trace carried by ctx, or nil when the request is not
// traced. All Trace methods are nil-safe, so callers use the result
// unconditionally.
func From(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Span records one plan node's execution: scheduling delay, host wall time,
// data volumes and the partition fan-out the operator actually used.
// Durations are microseconds; Parts is 0 when the operator did not
// partition (or execution never reached the operator's fan-out decision).
type Span struct {
	Node     int64   `json:"node"`
	Kind     string  `json:"kind"`
	Engine   string  `json:"engine,omitempty"`
	Device   string  `json:"device,omitempty"`
	Native   string  `json:"native,omitempty"`
	StartUS  int64   `json:"start_us"` // host time offset from trace start
	QueueUS  int64   `json:"queue_us"` // inputs-ready to engine-slot wait (concurrent mode)
	RunUS    int64   `json:"run_us"`   // host wall time of the real execution
	RowsIn   int64   `json:"rows_in"`
	RowsOut  int64   `json:"rows_out"`
	BytesIn  int64   `json:"bytes_in"`
	BytesOut int64   `json:"bytes_out"`
	Parts    int     `json:"parts,omitempty"`
	Cached   bool    `json:"cached,omitempty"` // served from the subplan cache, not executed
	Inputs   []int64 `json:"inputs,omitempty"` // producer node ids (span-tree edges)
}

// Event is one request-level occurrence: a cache probe outcome, an
// admission queue wait, a single-flight role. AtUS is the offset from trace
// start; DurUS is nonzero for phase-shaped events (queue waits).
type Event struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	AtUS   int64  `json:"at_us"`
	DurUS  int64  `json:"dur_us,omitempty"`
}

// Trace accumulates one request's observability record. Construct with New;
// a nil *Trace is the disabled trace and every method no-ops on it. Safe
// for concurrent use (executor workers add spans from many goroutines).
type Trace struct {
	id    string
	start time.Time

	mu     sync.Mutex
	spans  []Span
	events []Event
	annots map[string]string
}

// New starts a trace identified by id (the serving layer uses the plan
// fingerprint key so /debug/queries groups repeats of the same query).
func New(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// Start returns the trace start time (zero for nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// AddSpan records one node span.
func (t *Trace) AddSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Event records an instantaneous occurrence.
func (t *Trace) Event(name, detail string) {
	if t == nil {
		return
	}
	at := time.Since(t.start).Microseconds()
	t.mu.Lock()
	t.events = append(t.events, Event{Name: name, Detail: detail, AtUS: at})
	t.mu.Unlock()
}

// Phase records a duration-bearing event that began at start (admission
// queue waits). The offset is the phase start, the duration its length.
func (t *Trace) Phase(name, detail string, start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name:   name,
		Detail: detail,
		AtUS:   start.Sub(t.start).Microseconds(),
		DurUS:  time.Since(start).Microseconds(),
	})
	t.mu.Unlock()
}

// Annotate attaches a key/value label (single-flight role, cache outcome).
// Later values overwrite earlier ones under the same key.
func (t *Trace) Annotate(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.annots == nil {
		t.annots = make(map[string]string, 4)
	}
	t.annots[k] = v
	t.mu.Unlock()
}

// Tree is the rendered form of a finished trace: what the "trace": true
// response field carries and what /debug/queries retains.
type Tree struct {
	ID          string            `json:"id,omitempty"`
	StartedAt   time.Time         `json:"started_at"`
	WallUS      int64             `json:"wall_us"`
	Events      []Event           `json:"events,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Spans       []Span            `json:"spans,omitempty"`
}

// Finish snapshots the trace into its rendered tree, with spans ordered by
// node id. Safe to call more than once (each call re-snapshots); nil
// returns nil.
func (t *Trace) Finish() *Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tree := &Tree{
		ID:        t.id,
		StartedAt: t.start,
		WallUS:    time.Since(t.start).Microseconds(),
		Events:    append([]Event(nil), t.events...),
		Spans:     append([]Span(nil), t.spans...),
	}
	if len(t.annots) > 0 {
		tree.Annotations = make(map[string]string, len(t.annots))
		for k, v := range t.annots {
			tree.Annotations[k] = v
		}
	}
	// Executor workers finish spans in schedule order; present them in plan
	// (node-id) order so repeated traces of one query are diffable.
	for i := 1; i < len(tree.Spans); i++ {
		for j := i; j > 0 && tree.Spans[j-1].Node > tree.Spans[j].Node; j-- {
			tree.Spans[j-1], tree.Spans[j] = tree.Spans[j], tree.Spans[j-1]
		}
	}
	return tree
}
