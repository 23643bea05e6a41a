package server

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
	"polystorepp/internal/relational"
)

// The prepare path turns a request body into what the reuse layers key on:
// the program's plan (or, before its shape is compiled, the program), its
// bind vector, and the engines and tables it reads; every request compiles
// under the server's options. The plan cache is the one memo on the way. The
// parse, the IR build and the fingerprint depend on the request's shape
// alone, so a SQL statement or a program of a shape compiled before skips
// all three: one pass (appendShapeKey; relational.Shape lexes each
// statement) turns it into a shape key and a bind vector, and the plan cache
// maps the key to the shape's plan, which carries its plan key and touches.
// An nl or text request is built and probed under its plan key.

// preparedQuery is the decoded-and-keyed preamble shared by /query and
// /query/stream: the plan or program, the deadline, the cache keys, the bound
// plan and the response. It is pooled: nothing may keep it past serveQuery.
type preparedQuery struct {
	req    QueryRequest
	nlRule string
	// plan is the shared plan the plan cache holds for the program's shape;
	// on a miss it is nil, graph is the program to compile, and shapeKey the
	// shape key the plan is cached under besides its plan key ("" when the
	// request is not its shape's template). binds are the constants
	// the holes stand for, in p's own array, and bound the plan bound to them.
	plan     *compiler.Plan
	graph    *ir.Graph
	shapeKey string
	binds    []any
	timeout  time.Duration
	planKey  string
	touches  compiler.Touches
	vv       string

	// tenant is who the request runs for: its admission flow.
	tenant string
	steps  []ProgramStep // the array req.Program is decoded into, kept for reuse
	key    []byte        // the shape-key buffer, kept likewise
	miss   core.RootMiss // the root probe's key, its buffer kept likewise
	bound  compiler.Plan
	resp   QueryResponse // the answer summarize renders
	cols   []string      // the array resp.Columns is cut from, kept likewise
}

// bind returns plan executing with p's constants: a copy in p, not on the heap.
func (p *preparedQuery) bind(plan *compiler.Plan) *compiler.Plan {
	p.bound, p.bound.Binds = *plan, p.binds
	return &p.bound
}

// release zeroes p, and its bind and column arrays to their capacity, but
// keeps those and its step array and key buffers; it pools p unless it grew
// past 16 steps, 256 binds or columns, or a 16 KiB shape key. Every step is
// zeroed — a decode keeps each field its body omits — but for its
// FeatureCols, emptied for the next body's columns: the program builder
// copies them into its nodes.
func (p *preparedQuery) release() {
	for i, st := range p.steps[:cap(p.steps)] {
		clear(st.FeatureCols)
		p.steps[:cap(p.steps)][i] = ProgramStep{FeatureCols: st.FeatureCols[:0]}
	}
	clear(p.binds[:cap(p.binds)])
	clear(p.cols[:cap(p.cols)])
	*p = preparedQuery{steps: p.steps[:0], key: p.key[:0], binds: p.binds[:0], cols: p.cols[:0], miss: p.miss}
	if cap(p.steps) <= 16 && cap(p.key) <= 16<<10 && cap(p.binds) <= 256 && cap(p.cols) <= 256 {
		preambles.Put(p)
	}
}

// prepareQuery decodes the request body into p, a released preamble, and
// prepares it. On failure it writes the error response and returns false
// (nothing has been executed yet, so plain HTTP status codes still apply on
// both the buffered and streaming paths).
func (s *Server) prepareQuery(w http.ResponseWriter, r *http.Request, ts *tenantState, p *preparedQuery) bool {
	p.tenant, p.req.Program = ts.id, p.steps
	if !s.decodeBody(w, r, &p.req) {
		return false // release zeroes p.steps, the array written before any growth
	}
	if p.steps = p.req.Program; len(p.steps) == 0 {
		p.req.Program = nil // as a fresh decode leaves a body without steps
	}
	for i := range p.steps {
		if len(p.steps[i].FeatureCols) == 0 {
			p.steps[i].FeatureCols = nil // likewise a step without feature_cols
		}
	}
	if err := s.prepare(p); err != nil {
		s.st.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// prepare derives everything but the body from p.req: the deadline, the
// program and the cache keys. Its errors are the client's (400).
func (s *Server) prepare(p *preparedQuery) error {
	// Per-request deadline: admission waiting and execution both run under
	// it, so a request stuck in the queue cannot outlive its budget.
	p.timeout = s.requestTimeout(p.req.TimeoutMS)
	if err := s.prepareProgram(p); err != nil {
		return err
	}
	// The plan cache keys on the program's shape; single-flight adds the
	// program's constants and the version vector of exactly the
	// engines/tables the program touches, so a shared execution never
	// outlives the data it was computed on. The root probe keys on it too.
	p.vv = s.rt.VersionVector(p.touches)
	return nil
}

// prepareProgram fills p's plan or program, bind vector, plan key and
// touches through the plan cache, counting one plan-cache outcome: a hit
// under the shape key or the plan key, or a miss.
func (s *Server) prepareProgram(p *preparedQuery) error {
	k, lexed, keyed := appendShapeKey(p.key[:0], &p.req, s.sqlEngine(&p.req), p.binds[:0])
	if p.key = k; keyed { // k is the request's shape key, probed as bytes
		if plan, ok := s.cache.GetBytes(k); ok {
			s.st.planHits.Inc()
			p.plan, p.binds, p.planKey, p.touches = plan, lexed, plan.Key, plan.Touches
			return nil
		}
	}

	prog, nlRule, err := s.buildProgram(&p.req)
	if err != nil {
		return err
	}
	g := prog.Graph()
	if err := s.checkEngines(g); err != nil {
		return err
	}
	// A pinned fan-out mutates the graph before fingerprinting, so plans
	// compiled at different fan-outs never share a plan or subplan entry.
	stampParts(g, s.parts)
	p.nlRule, p.planKey = nlRule, compiler.Key(g, s.opts)
	// The request is its shape's template only when its parses lifted
	// exactly the literals the lexer found, and no literal's value shaped
	// them: then every request of its shape key builds this plan key with
	// its own constants bound.
	if keyed && !prog.ValueShaped() && slices.Equal(lexed, g.Binds()) {
		p.shapeKey = string(k)
	}
	p.binds = append(lexed[:0], g.Binds()...) // p's array: release clears it, and a compiled plan keeps g's
	if plan, ok := s.cache.Get(p.planKey); ok {
		s.st.planHits.Inc()
		p.plan, p.touches = plan, plan.Touches
		if p.shapeKey != "" {
			s.cache.Put(p.shapeKey, plan) // its shape key was evicted, or never stored
		}
		return nil
	}
	s.st.planMisses.Inc()
	p.graph, p.touches = g, compiler.TouchesOf(g)
	return nil
}

// appendShapeKey appends req's shape key to dst and the constants of its
// SQL literals to binds, in step and text order; ok is false when it has
// none. A sql request's key is "sql|", its engine and its statement's token
// stream (relational.Shape); a program's is "prog|" and every field of every
// step, length-prefixed, a sql step's text replaced by its token stream. The
// compiler options and the fan-out are the server's, so no key holds them.
// Plan keys start with a fingerprint. nl and text requests have no shape
// key, nor has a statement Shape refuses: the build path answers why.
func appendShapeKey(dst []byte, req *QueryRequest, engine string, binds []any) ([]byte, []any, bool) {
	var err error
	switch req.Frontend {
	case "sql":
		if engine == "" || req.Statement == "" {
			return dst, binds, false
		}
		dst = appendField(append(dst, "sql|"...), engine)
		dst, binds, err = relational.Shape(dst, req.Statement, binds)
		return dst, binds, err == nil
	case "program":
		dst = append(dst, "prog|"...)
		for i := range req.Program {
			st := &req.Program[i]
			for _, f := range [...]string{st.ID, st.Op, st.Engine, st.Query, st.SeriesPrefix, st.Agg, st.Prefix,
				st.Left, st.Right, st.LeftCol, st.RightCol, st.Input, st.Col, st.LabelCol, st.Model} {
				dst = appendField(dst, f)
			}
			dst = appendNum(appendNum(appendNum(appendNum(dst, st.K), st.Hidden), st.Epochs), st.Batch)
			dst = append(strconv.AppendFloat(append(strconv.AppendBool(dst, st.Desc), '|'), st.LR, 'g', -1, 64), '|')
			dst = appendNum(dst, len(st.FeatureCols))
			for _, c := range st.FeatureCols {
				dst = appendField(dst, c)
			}
			if st.Op != "sql" {
				dst = appendField(dst, st.SQL)
				continue
			}
			// The token stream, behind a fixed-width length set once Shape has run.
			at := len(dst)
			if dst, binds, err = relational.Shape(append(dst, 0, 0, 0, 0), st.SQL, binds); err != nil {
				return dst, binds, false
			}
			binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		}
		return dst, binds, true
	}
	return dst, binds, false
}

// appendField appends s length-prefixed, so no field can run into the next.
func appendField(dst []byte, s string) []byte {
	return append(append(strconv.AppendInt(dst, int64(len(s)), 10), ':'), s...)
}

// appendNum appends n and a separator.
func appendNum(dst []byte, n int) []byte {
	return append(strconv.AppendInt(dst, int64(n), 10), '|')
}

// flightKey is the single-flight key of one execution: the plan key, the
// bind vector and the version vector.
func flightKey(planKey string, binds []any, vv string) string {
	var buf [256]byte
	b := append(buf[:0], planKey...)
	b = append(b, '|')
	for _, v := range binds {
		b = ir.AppendBind(b, v)
	}
	b = append(b, '|')
	return string(append(b, vv...))
}

// stampParts pins the partition fan-out of every partitionable operator in
// the program. parts 0 leaves automatic sizing untouched.
func stampParts(g *ir.Graph, parts int) {
	if parts == 0 {
		return
	}
	for _, n := range g.Nodes() {
		if !n.Kind.Partitioned() {
			continue
		}
		if n.Attrs == nil {
			n.Attrs = make(map[string]any, 1)
		}
		n.Attrs["parts"] = int64(parts)
	}
}

// sqlEngine is the engine a sql request runs on: its own, else the
// deployment's default SQL engine.
func (s *Server) sqlEngine(req *QueryRequest) string {
	if req.Engine != "" {
		return req.Engine
	}
	return s.cfg.DefaultSQLEngine
}

// buildProgram constructs the EIDE program selected by the request frontend.
func (s *Server) buildProgram(req *QueryRequest) (*eide.Program, string, error) {
	switch req.Frontend {
	case "sql":
		engine := s.sqlEngine(req)
		if engine == "" {
			return nil, "", fmt.Errorf("sql frontend needs an engine")
		}
		if req.Statement == "" {
			return nil, "", fmt.Errorf("sql frontend needs a statement")
		}
		p := eide.NewProgram()
		if _, err := p.SQL(engine, req.Statement); err != nil {
			return nil, "", err
		}
		return p, "", nil
	case "nl":
		if s.nl == nil {
			return nil, "", fmt.Errorf("nl frontend not configured on this deployment")
		}
		if req.Statement == "" {
			return nil, "", fmt.Errorf("nl frontend needs a statement")
		}
		p, rule, err := s.nl.Translate(req.Statement)
		if err != nil {
			return nil, "", err
		}
		return p, rule, nil
	case "text":
		engine := req.Engine
		if engine == "" {
			engine = s.cfg.DefaultTextEngine
		}
		if engine == "" {
			return nil, "", fmt.Errorf("text frontend needs an engine")
		}
		if req.Statement == "" {
			return nil, "", fmt.Errorf("text frontend needs a statement")
		}
		k := req.K
		if k <= 0 {
			k = 10
		}
		p := eide.NewProgram()
		p.TextSearch(engine, req.Statement, k)
		return p, "", nil
	case "program":
		p, err := buildProgram(req.Program)
		if err != nil {
			return nil, "", err
		}
		return p, "", nil
	default:
		return nil, "", fmt.Errorf("unknown frontend %q (want sql, nl, text or program)", req.Frontend)
	}
}

// checkEngines rejects programs naming engines this deployment does not run
// before any work is admitted.
func (s *Server) checkEngines(g *ir.Graph) error {
	for _, n := range g.Nodes() {
		if n.Engine == "" {
			continue // middleware nodes (migrations)
		}
		if !s.rt.HasEngine(n.Engine) {
			return fmt.Errorf("unknown engine %q (registered: %v)", n.Engine, s.rt.Engines())
		}
	}
	return nil
}
