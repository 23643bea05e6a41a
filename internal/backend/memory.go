package backend

import "context"

// Memory is the reference backend: the native in-memory engines exactly as
// they are, full pushdown, nothing persisted. Every durable backend must be
// read-equivalent to it after recovery — the property the WAL replay
// equivalence suite pins.
type Memory struct{}

// NewMemory returns the reference in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Attach implements Backend (stores need no binding; they are the storage).
func (m *Memory) Attach(name string, s Durable) {}

// Deprecated: use Attach.
func (m *Memory) AttachTimeseries(name string, s Durable) {}

// Deprecated: use Attach.
func (m *Memory) AttachRelational(name string, s Durable) {}

// Recover implements Backend: there is never persisted state.
func (m *Memory) Recover() (RecoverStats, error) { return RecoverStats{}, nil }

// Start implements Backend: nothing to journal into.
func (m *Memory) Start() error { return nil }

// Barrier implements Backend: in-memory applies are immediately "durable"
// for the lifetime the backend promises (the process).
func (m *Memory) Barrier(ctx context.Context) error { return ctx.Err() }

// Checkpoint implements Backend: nothing to compact.
func (m *Memory) Checkpoint() error { return nil }

// Stats implements Backend: not durable.
func (m *Memory) Stats() Stats {
	return Stats{Kind: "memory", Capabilities: pushdown}
}

// Close implements Backend.
func (m *Memory) Close() error { return nil }
