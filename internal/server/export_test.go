package server

import (
	"net/http"
	"time"

	"polystorepp/internal/compiler"
)

// Prepared is what preparing a request yields for the reuse layers to key on.
type Prepared struct {
	PlanKey string
	Binds   []any
	Touches compiler.Touches
}

// Prepare prepares req as /query does, without executing it.
func (s *Server) Prepare(req QueryRequest) (Prepared, error) {
	p := &preparedQuery{req: req}
	if err := s.prepare(p); err != nil {
		return Prepared{}, err
	}
	return Prepared{PlanKey: p.planKey, Binds: p.binds, Touches: p.touches}, nil
}

// CrossEngineProgram is bench/'s cross_engine request for (a, v).
var CrossEngineProgram = crossEngineProgram

// The seams below adjust h, a server New (or polystore's System.Handler)
// built, before it serves; no deployment can set them.

// WithoutSingleFlight turns single-flight off, so every request executes
// its own plan: for tests that count executions.
func WithoutSingleFlight(h http.Handler) http.Handler {
	h.(*Server).flight = nil
	return h
}

// CapTimeout caps client-requested deadlines at d instead of maxTimeout, so
// a hostile timeout_ms cannot hold a fuzz worker for a minute.
func CapTimeout(h http.Handler, d time.Duration) http.Handler {
	h.(*Server).maxTimeout = d
	return h
}

// PinParts pins the partition fan-out of every partitionable operator the
// server compiles at n instead of sizing it from each operator's input: for
// the suites that check an answer is the same at any fan-out.
func PinParts(h http.Handler, n int) http.Handler {
	h.(*Server).parts = n
	return h
}
