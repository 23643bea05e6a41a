package server

import "polystorepp/internal/compiler"

// Prepared is what preparing a request yields for the reuse layers to key on.
type Prepared struct {
	PlanKey string
	Binds   []any
	Touches compiler.Touches
}

// Prepare prepares req as /query does, without executing it.
func (s *Server) Prepare(req QueryRequest) (Prepared, error) {
	p := &preparedQuery{req: req}
	if err := s.prepare(p, "", s.tenants.state("")); err != nil {
		return Prepared{}, err
	}
	return Prepared{PlanKey: p.planKey, Binds: p.binds, Touches: p.touches}, nil
}

// CrossEngineProgram is bench/'s cross_engine request for (a, v).
var CrossEngineProgram = crossEngineProgram
