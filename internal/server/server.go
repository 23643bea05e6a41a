// Package server is the query-serving subsystem of Polystore++: an HTTP/JSON
// front end over the middleware runtime. BigDAWG-style polystores become
// systems through exactly this layer — a middleware API that accepts client
// queries, routes them across engines/islands, and manages cross-engine
// execution — and Polystore++ §IV-D notes that runtime statistics are the
// prerequisite for optimization, which a serving layer naturally produces.
//
// The server adds four things on top of core.Runtime:
//
//   - Admission control: a bounded worker pool plus bounded wait queue.
//     Requests beyond the bound get HTTP 429 immediately; queued requests
//     that outlive their deadline get 504. Load sheds at the front door.
//     "Admit or refuse" is one protocol (tenants.go, admission.go): a
//     query enters through its tenant's rate gate and breaker and holds a
//     ticket, acquires a worker slot from admission (which sheds, queues or
//     overflows), and settles the ticket on every way out. Whatever turns
//     it away on that path is one refusal value carrying its status, cause
//     and Retry-After.
//   - A plan cache: programs are fingerprinted by shape (ir.Graph.Fingerprint
//     hashes each lifted literal's type, not its value) and compiled plans
//     are reused across requests, so every statement of a compiled shape
//     skips the compiler and executes with its own constants (hits/misses
//     are exported on /metrics). The same cache maps a SQL statement's
//     lexed shape key to its plan, so a statement of a compiled shape skips
//     the parser, the IR build and the fingerprint as well (prepare.go).
//   - Single-flight: identical queries in flight at the same time share one
//     execution; only the leader holds a worker slot (singleflight.go).
//   - Observability: every reported number is declared once in the stat
//     table (stats.go), which /stats renders as JSON and /metrics as
//     Prometheus text; /healthz reports liveness.
//
// A repeated read is answered by the runtime's subplan cache: before
// single-flight and admission, serveQuery asks core.Runtime.ProbeRoot whether
// the cache holds the whole plan at the current version vector of the data
// it reads, so a cached read takes no worker slot, no flight and no deadline
// context, a write to a store it reads rotates the key, and writes to other
// stores leave it addressable.
//
// Endpoints:
//
//	POST /query         {"frontend":"sql","engine":"db","statement":"SELECT ..."}
//	                    {"frontend":"nl","statement":"how many patients are there?"}
//	                    {"frontend":"text","engine":"txt","statement":"sedation","k":5}
//	                    {"frontend":"program","program":[{...step...},...]}
//	POST /query/stream  same body; the same answer as NDJSON records (stream.go)
//	POST /ingest        {"engine":"db","table":"patients","row":[1,2,3]}
//	                    {"engine":"ts","series":"vitals/1/hr","ts":123,"value":70}
//	                    {"engine":"kv","key":"session/9","data":"..."}
//	GET  /healthz       liveness + registered engines
//	GET  /metrics       Prometheus text exposition
//	GET  /stats         JSON serving statistics
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/backend"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/eide"
	"polystorepp/internal/obs"
	"polystorepp/internal/tenant"
)

// Config is what a deployment sets for its serving subsystem; zero values
// select the documented defaults. The compiler options come with New, and
// the subplan cache is the runtime's (core.WithSubplanCacheBytes).
type Config struct {
	// Workers bounds concurrent plan executions (default 8).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the executing
	// ones; arrivals past Workers+QueueDepth are rejected with 429.
	// Zero selects the default (32); negative means no queue at all —
	// anything beyond Workers is rejected immediately.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does not
	// set timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// PlanCacheSize bounds the plan cache's entries (default 256). A
	// compiled plan takes one under its plan key, and a SQL or program shape
	// one more under its shape key.
	PlanCacheSize int
	// MaxRows caps rows returned per response; clients may lower it per
	// request but not exceed it (default 1000).
	MaxRows int
	// DefaultSQLEngine is used by the sql/text frontends when the request
	// omits "engine".
	DefaultSQLEngine string
	// DefaultTextEngine is the text frontend's default engine.
	DefaultTextEngine string
	// NL binds the natural-language translator to engine instance names;
	// leave zero to disable the nl frontend.
	NL NLBinding
	// EnablePprof mounts net/http/pprof profile handlers under /debug/pprof/
	// (off by default; profiling endpoints are operator surface, not client
	// surface).
	EnablePprof bool
	// TraceAll traces every request server-side so /debug/queries retains
	// recent and slowest executions even when clients never ask for traces.
	// Off by default: tracing is per-request opt-in via "trace": true.
	TraceAll bool

	// TenantRate / TenantBurst are the default per-tenant token bucket:
	// sustained requests per second and burst capacity applied to every
	// tenant without an explicit quota. Zero rate means unlimited — the
	// single-tenant default.
	TenantRate  float64
	TenantBurst float64
	// TenantQuotas overrides rate/burst per tenant id (see
	// tenant.ParseQuotas for the flag syntax).
	TenantQuotas map[string]tenant.Quota
	// ShedHighWater is the inflight fraction of admission capacity at which
	// executions are shed; cached reads never are (default 0.85; negative
	// disables shedding).
	ShedHighWater float64
	// DrainTimeout bounds graceful shutdown: after SIGTERM the server
	// rejects new work with 503 and gives in-flight requests (streams
	// included) this long to finish (default 15s).
	DrainTimeout time.Duration

	// Backend is the storage backend the deployment's stores are attached to
	// (nil: none, nothing survives a restart). The server does not drive
	// it — recovery and the runtime's ingest barrier are wired at boot — but
	// exposes its durability statistics on /stats and /metrics so operators
	// can watch WAL volume, replay outcomes and snapshot compaction.
	Backend backend.Backend
}

// NLBinding names the engines the NL translator builds programs against.
type NLBinding = eide.Binding

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = -1 // normalized "no queue"; admission clamps to 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1000
	}
	if c.ShedHighWater == 0 {
		c.ShedHighWater = defaultShedHighWater
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

// defaultShedHighWater is the shedding threshold when none is configured.
const defaultShedHighWater = 0.85

// maxTimeout caps client-requested deadlines.
const maxTimeout = 60 * time.Second

// Server serves heterogeneous queries over one core.Runtime. Construct with
// New; Server implements http.Handler.
type Server struct {
	rt      *core.Runtime
	opts    compiler.Options
	cfg     Config
	cache   *compiler.PlanCache
	flight  *flightGroup
	adm     *admission
	tenants *tenantControl
	nl      *eide.NLTranslator
	mux     *http.ServeMux
	traces  *obs.TraceLog
	// maxTimeout caps client-requested deadlines: the maxTimeout constant,
	// lower only in tests.
	maxTimeout time.Duration

	// st holds the counters and histograms the request path bumps; stats is
	// the table that declared them. /stats and /metrics render it followed
	// by the rows read from per-scrape snapshots (stats.go: topLevel).
	st    serverStats
	stats []stat

	// draining rejects new work with 503 while in-flight requests finish
	// (graceful shutdown); httpInflight counts requests currently inside
	// ServeHTTP, which Drain waits on.
	draining     atomic.Bool
	httpInflight atomic.Int64
}

// New builds a server over the runtime. Every request compiles under opts.
// The server leaves the runtime as it was built: servers over one runtime
// share its subplan cache.
func New(rt *core.Runtime, opts compiler.Options, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		rt:         rt,
		opts:       opts,
		cfg:        cfg,
		cache:      compiler.NewPlanCache(cfg.PlanCacheSize),
		flight:     newFlightGroup(),
		adm:        newAdmission(cfg.Workers, cfg.QueueDepth, cfg.ShedHighWater),
		mux:        http.NewServeMux(),
		traces:     obs.NewTraceLog(traceLogRecent, traceLogSlowest),
		maxTimeout: maxTimeout,
	}
	s.tenants = newTenantControl(cfg)
	if cfg.NL != (NLBinding{}) {
		s.nl = eide.NewNLTranslator(cfg.NL)
	}
	s.st, s.stats = newStatTable(s)
	s.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, false, newPreamble()) })
	s.mux.HandleFunc("/query/stream", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, true, newPreamble()) })
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	if cfg.EnablePprof {
		s.mountPprof()
	}
	return s
}

// ServeHTTP implements http.Handler. While draining it rejects work-bearing
// requests with 503 (observability endpoints stay up so operators can watch
// the drain), and it counts in-flight requests so Drain can wait for them.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() && drainRejected(r.URL.Path) {
		w.Header().Set("Connection", "close")
		s.writeQueryError(w, nil, &refusal{
			status: http.StatusServiceUnavailable,
			cause:  causeDraining,
			msg:    "server: draining for shutdown",
		}, 0)
		return
	}
	s.httpInflight.Add(1)
	defer s.httpInflight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// drainRejected reports whether a path carries work that a draining server
// must refuse. Health, metrics and stats stay served.
func drainRejected(path string) bool {
	switch path {
	case "/query", "/query/stream", "/ingest":
		return true
	}
	return false
}

// StartDrain flips the server into draining mode: new work is rejected with
// 503 while already-admitted requests (streams included) run to completion.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight request has finished or ctx expires,
// returning ctx's error in the latter case. Call StartDrain first or new
// arrivals will keep the count from reaching zero.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.httpInflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// QueryRequest is the POST /query body. It names what to run, not how: the
// compiler options are the deployment's and no kernel has a fan-out to pin,
// so a body naming "level", "accel" or "parts" is refused as an unknown
// field.
type QueryRequest struct {
	// Frontend selects the program builder: "sql", "nl", "text" or
	// "program".
	Frontend Frontend `json:"frontend"`
	// Engine is the target engine instance for sql/text (defaulted from
	// config when omitted).
	Engine string `json:"engine,omitempty"`
	// Statement is the query text for sql/nl/text frontends.
	Statement string `json:"statement,omitempty"`
	// K is the text frontend's top-k (default 10).
	K int `json:"k,omitempty"`
	// Program is the multi-engine step list for the program frontend.
	Program []ProgramStep `json:"program,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRows caps result rows (clamped to the server's MaxRows).
	MaxRows int `json:"max_rows,omitempty"`
	// Trace returns the request's span tree in the response ("trace" field,
	// or a trailing NDJSON trace record on /query/stream). Tracing never
	// changes results and does not participate in cache keys.
	Trace bool `json:"trace,omitempty"`
}

// Frontend names a request's program builder.
type Frontend string

// UnmarshalJSON decodes a frontend the server knows into its constant,
// allocating nothing; any other value decodes as a string does.
func (f *Frontend) UnmarshalJSON(b []byte) error {
	for _, k := range [...]Frontend{"sql", "nl", "text", "program"} {
		if len(b) == len(k)+2 && b[0] == '"' && string(b[1:len(b)-1]) == string(k) {
			*f = k
			return nil
		}
	}
	return json.Unmarshal(b, (*string)(f))
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	Columns []string `json:"columns,omitempty"`
	// Rows is the JSON array of row arrays, encoded from the result's typed
	// columns (cast.AppendJSONRows) before the envelope is.
	Rows      json.RawMessage `json:"rows,omitempty"`
	RowCount  int             `json:"row_count"`
	Truncated bool            `json:"truncated,omitempty"`
	// Model is set when the sink value is a trained model rather than a
	// tabular batch.
	Model bool `json:"model,omitempty"`
	// NLRule names the translator rule matched by the nl frontend.
	NLRule string `json:"nl_rule,omitempty"`
	// PlanCache is "hit" or "miss".
	PlanCache string `json:"plan_cache"`
	// SingleFlight is true when this response shared another identical
	// request's in-flight execution instead of running its own.
	SingleFlight bool `json:"single_flight,omitempty"`
	// DataVersion is the global store mutation counter at response time
	// (kept for observability; the caches key on version vectors instead).
	DataVersion uint64 `json:"data_version"`
	// VersionVector is the per-engine data-version vector of the engines
	// and tables this query touches — part of its single-flight key.
	VersionVector string `json:"version_vector,omitempty"`
	// Simulated execution outcome (see core.Report).
	SimLatencySeconds float64 `json:"sim_latency_seconds"`
	SimEnergyJoules   float64 `json:"sim_energy_joules"`
	WallMicros        int64   `json:"wall_us"`
	Migrations        int     `json:"migrations"`
	Nodes             int     `json:"nodes"`
	// Trace is the request's span tree, present only when the request set
	// "trace": true. A read the root probe answers carries the cache.subplan
	// hit event and every node's span marked cached; a single-flight share
	// carries the serving events without node spans — the spans belong to
	// the execution that actually ran.
	Trace *obs.Tree `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// wireBuf is a pooled buffer a response is encoded into in full before its
// first byte is written, so a value that cannot be encoded still has a
// status line to fail with. Append to b, or hand the wireBuf to an encoder
// as its io.Writer.
type wireBuf struct{ b []byte }

func (buf *wireBuf) Write(p []byte) (int, error) {
	buf.b = append(buf.b, p...)
	return len(p), nil
}

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}
var preambles = sync.Pool{New: func() any { return new(preparedQuery) }} // see preparedQuery.release

func newPreamble() *preparedQuery { return preambles.Get().(*preparedQuery) }

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

// putWireBuf recycles buf unless a rare huge response grew it: the pool
// must not pin one MaxRows-sized buffer per worker.
func putWireBuf(buf *wireBuf) {
	if cap(buf.b) <= 1<<20 {
		buf.b = buf.b[:0]
		wireBufs.Put(buf)
	}
}

var jsonType = []string{"application/json"} // every JSON reply's Content-Type: net/http only reads it

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	_, _ = w.Write(buf.b) // a client that went away; nothing is left to tell it
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// postOnly is the method check of the work-bearing endpoints; on any other
// method it writes the 405 and returns false.
func postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return true
}

// bodyDecoder is a pooled JSON decoder over itself as its source: body is
// one request's body for a decode (nil in the pool), and n counts the bytes
// it has yielded.
type bodyDecoder struct {
	*json.Decoder
	body io.Reader
	n    int
}

func (d *bodyDecoder) Read(p []byte) (int, error) {
	n, err := d.body.Read(p)
	d.n += n
	return n, err
}

var bodyDecoders = sync.Pool{New: func() any {
	d := new(bodyDecoder)
	d.Decoder = json.NewDecoder(d)
	d.DisallowUnknownFields()
	d.UseNumber()
	return d
}}

// maxPooledBody bounds what a pooled decoder has read: json.Decoder's buffer
// is private, so the bytes its body yielded are the only bound on it.
const maxPooledBody = 16 << 10

// decodeBody decodes a JSON request body into v, which holds no field but the
// arrays it lends the decode, rejecting unknown fields and anything but
// whitespace after the value; on failure it writes the 400, or the 413 past
// 1 MiB, and returns false. A number bound to an untyped field stays a
// json.Number, so an integer beyond 2^53 is not rounded through float64.
//
// The decoder is pooled. It goes back to the pool only after a body it read
// to the end — one value, then io.EOF — of at most maxPooledBody bytes; on
// any error it is dropped, so a decoder mid-value or holding a saved error
// is never read again. What a pooled one keeps is a buffer of at most the
// last body's trailing whitespace, which the next value skips.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	d := bodyDecoders.Get().(*bodyDecoder)
	d.body, d.n = http.MaxBytesReader(w, r.Body, 1<<20), 0
	err := d.Decode(v)
	_, tail := d.Token()
	if d.body = nil; err == nil && tail == io.EOF && d.n <= maxPooledBody {
		bodyDecoders.Put(d)
	}
	if err == nil && tail != io.EOF {
		err = errors.New("data after the JSON value")
		if errors.As(tail, new(*http.MaxBytesError)) {
			err = tail // the value fit, its trailing whitespace did not
		}
	}
	if err != nil {
		s.st.badRequest.Inc()
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: %v", err)
		return false
	}
	return true
}

// requestTimeout resolves a request's timeout_ms against the configured
// default and the cap. The cap is applied in the millisecond domain, before
// converting: a huge timeout_ms times time.Millisecond wraps negative.
func (s *Server) requestTimeout(ms int64) time.Duration {
	if ms > int64(s.maxTimeout/time.Millisecond) {
		return s.maxTimeout
	}
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return min(s.cfg.DefaultTimeout, s.maxTimeout)
}

// serveQuery is the spine /query and /query/stream share: method check,
// tenant gates (whose ticket is settled on every way out), prepare into p (a
// released preamble, released on every way out), trace, the root probe, then
// on a miss the deadline and tenant context (only running nodes and a
// stream's record cutter read them) and runQuery, respond. The endpoints
// differ only in how the outcome leaves: /query encodes it into one JSON
// body, /query/stream into NDJSON records (ndjsonStream, stream.go).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, streaming bool, p *preparedQuery) {
	defer p.release()
	if !postOnly(w, r) {
		return
	}
	s.st.requests.Inc()
	if streaming {
		s.st.streamRequests.Inc()
	}
	t0 := time.Now()
	ts := s.tenants.state(tenant.FromHTTP(r))
	tk, ref := ts.enter(t0)
	if ref != nil {
		s.writeQueryError(w, ts, ref, 0)
		return
	}
	// Until runQuery has an outcome the request is neutral: a body that
	// does not decode or prepare never ran, and still returns its probe.
	result := neutral
	defer func() { tk.done(result) }()
	if !s.prepareQuery(w, r, ts, p) {
		return
	}
	deadline := time.Now().Add(p.timeout)
	tr := s.startTrace(p)
	tr.Annotate("tenant", ts.id)
	ctx := obs.With(r.Context(), tr)

	out, hit := queryOutcome{planHit: p.plan != nil}, false
	if out.planHit { // no admission: a lookup needs no worker; a miss keeps its key in p.miss
		out.res, out.rep, hit = s.rt.ProbeRoot(ctx, p.bind(p.plan), p.vv, &p.miss)
	}
	if !hit || streaming {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(tenant.With(ctx, ts.id), deadline)
		defer cancel()
	}
	var err error
	if !hit {
		out, err = s.runQuery(ctx, p)
	}
	result = outcomeOf(err)
	tree := tr.Finish()
	s.traces.Record(tree)
	if !p.req.Trace {
		tree = nil
	}
	if err != nil {
		s.writeQueryError(w, ts, err, p.timeout)
		return
	}
	resp, n := s.summarize(p, out.res, out.rep)
	s.decorateResponse(resp, p, out)
	if streaming {
		newNDJSONStream(ctx, s, w, s.effectiveMaxRows(&p.req), t0, p.timeout).deliver(out.res, resp, tree)
		return
	}
	if n > 0 { // no rows, no "rows" field
		rows := getWireBuf()
		defer putWireBuf(rows)
		if rows.b, err = out.res.First().Batch.AppendJSONRows(rows.b, 0, n); err != nil {
			s.st.execErrors.Inc()
			writeError(w, http.StatusInternalServerError, "encode results: %v", err)
			return
		}
		resp.Rows = rows.b
	}
	resp.Trace = tree
	s.st.latency.Observe(time.Since(t0).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// startTrace creates the request's trace when the client asked for one (or
// the deployment traces everything); nil otherwise — the zero-cost path.
// The trace id is the plan-cache key — the shape key — so /debug/queries
// groups every statement of one shape, whatever its constants, under one id.
func (s *Server) startTrace(p *preparedQuery) *obs.Trace {
	if !p.req.Trace && !s.cfg.TraceAll {
		return nil
	}
	return obs.New(p.planKey)
}

// decorateResponse fills the serving-metadata fields shared by buffered
// responses and streamed summaries.
func (s *Server) decorateResponse(resp *QueryResponse, p *preparedQuery, out queryOutcome) {
	resp.NLRule = p.nlRule
	resp.PlanCache = hitMiss(out.planHit)
	resp.SingleFlight = out.shared
	resp.DataVersion = s.rt.DataVersion()
	resp.VersionVector = p.vv
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// queryOutcome is one served query's results plus which layer produced them.
type queryOutcome struct {
	res     *core.Results
	rep     *core.Report
	planHit bool
	shared  bool
}

// runQuery serves a query the root probe did not answer through the
// remaining acceleration layers, cheapest first: single-flight (followers
// wait without a slot), then admission-controlled compile + execute. Every
// way returns the finished outcome; how it is written to the client is the
// caller's business.
func (s *Server) runQuery(ctx context.Context, p *preparedQuery) (queryOutcome, error) {
	var plan *compiler.Plan // p's plan bound to its constants; nil until compiled
	if p.plan != nil {
		plan = p.bind(p.plan)
	}
	if s.flight == nil { // tests that count executions turn single-flight off
		res, rep, planHit, err := s.executeOnce(ctx, p, plan)
		return queryOutcome{res: res, rep: rep, planHit: planHit}, err
	}
	tr := obs.From(ctx)
	key := flightKey(p.planKey, p.binds, p.vv)
	var (
		res     *core.Results
		rep     *core.Report
		planHit bool
		shared  bool
		err     error
	)
	// A leader that dies of its own context (canceled client, tighter
	// deadline) fans its error out to every follower. Followers
	// whose own context is still alive re-enter the flight group, so the
	// retry wave elects exactly one new leader instead of stampeding
	// admission (or inheriting a 500 for a query that would succeed).
	for attempt := 0; ; attempt++ {
		res, rep, planHit, shared, err = s.flight.do(ctx, key, func() (*core.Results, *core.Report, bool, error) {
			return s.executeOnce(ctx, p, plan)
		})
		if shared && err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			if attempt < 4 {
				continue
			}
			// Retries exhausted on a run of dying leaders. The inherited
			// context error is the leaders' condition, not this client's —
			// reporting it raw would 499/504 a perfectly healthy request.
			err = leadersGone(err)
		}
		break
	}
	if shared {
		s.st.flightShared.Inc()
		tr.Annotate("single_flight", "follower")
	} else {
		tr.Annotate("single_flight", "leader")
	}
	return queryOutcome{res: res, rep: rep, planHit: planHit, shared: shared}, err
}

// leadersGone refuses a follower whose every single-flight leader was
// canceled before finishing (last is the final leader's error). Transient by
// construction, so it is a 503 + Retry-After rather than the leaders' own
// 499/504.
func leadersGone(last error) *refusal {
	return &refusal{
		status: http.StatusServiceUnavailable,
		cause:  causeLeadersGone,
		msg:    fmt.Sprintf("server: shared execution repeatedly canceled by its leaders; retry (last leader: %v)", last),
	}
}

// executeOnce acquires a worker (or is shed), compiles when prepare found no
// plan (plan, p's plan bound to its constants, is nil), and executes. Reads
// the root probe answers and single-flight followers never reach this
// function, which is what makes admission's "cached reads survive overload"
// policy structural: only work that must actually occupy a worker can be
// shed.
func (s *Server) executeOnce(ctx context.Context, p *preparedQuery, plan *compiler.Plan) (*core.Results, *core.Report, bool, error) {
	tr := obs.From(ctx)
	var admT0 time.Time
	if tr != nil {
		admT0 = time.Now()
	}
	if err := s.adm.acquire(ctx, p.tenant); err != nil {
		var ref *refusal
		if errors.As(err, &ref) && ref.cause != causeQueueFull {
			tr.Event("admission.shed", ref.cause.String())
		}
		return nil, nil, false, err
	}
	// A successful execution's wall time feeds admission's service-time
	// estimate, so its deadline-aware wait estimates track the workload.
	var svc time.Duration
	defer func() { s.adm.release(svc) }()
	if tr != nil {
		tr.Phase("admission.queue", "", admT0)
	}

	// Compiling under admission lets a cold compile be shed; the incumbent
	// of a racing compile wins. serveQuery root-probed a plan prepare found.
	hit, miss := plan != nil, &p.miss
	if !hit {
		miss = nil
		compiled, err := s.cache.Compile(p.planKey, p.graph, s.opts)
		if err != nil {
			return nil, nil, false, err
		}
		if p.shapeKey != "" {
			s.cache.Put(p.shapeKey, compiled)
		}
		plan = p.bind(compiled)
	}
	tr.Event("cache.plan", hitMiss(hit))
	execT0 := time.Now()
	res, rep, err := s.rt.ExecuteAfterMiss(ctx, plan, miss)
	if err != nil {
		return nil, nil, hit, err
	}
	svc = time.Since(execT0)
	return res, rep, hit, nil
}

// classifyQueryError maps a runQuery failure to its wire status, message
// and Retry-After hint (0 = none), bumping the matching counter (a
// refusal's also against ts, the requesting tenant). Shared by
// writeQueryError (real HTTP status) and a stream that fails after its
// first record (in-band NDJSON error record: the status line is gone).
func (s *Server) classifyQueryError(ts *tenantState, err error, timeout time.Duration) (status int, msg string, retryAfter time.Duration) {
	var ref *refusal
	switch {
	case errors.As(err, &ref):
		s.countRefusal(ref, ts)
		return ref.status, ref.msg, ref.retryAfter
	case errors.Is(err, compiler.ErrCompile):
		s.st.badRequest.Inc()
		return http.StatusBadRequest, fmt.Sprintf("compile: %v", err), 0
	case isStatementError(err):
		s.st.badRequest.Inc()
		return http.StatusBadRequest, fmt.Sprintf("execute: %v", err), 0
	case errors.Is(err, context.DeadlineExceeded):
		s.st.deadline.Inc()
		return http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded after %s", timeout), 0
	case errors.Is(err, context.Canceled):
		// Client went away; the status code is never seen.
		return 499, "canceled", 0
	case errors.Is(err, core.ErrDurability):
		// The write applied but the backend could not make it durable: the
		// server's condition (a failing disk fails every write), so neither a
		// client error nor acknowledged. Ranked after the context cases — a
		// barrier still waiting at the deadline is a 504.
		s.st.execErrors.Inc()
		return http.StatusServiceUnavailable, err.Error(), time.Second
	default:
		s.st.execErrors.Inc()
		return http.StatusInternalServerError, fmt.Sprintf("execute: %v", err), 0
	}
}

// ceilSecond rounds a backoff up to whole seconds (the Retry-After header
// unit), minimum 1.
func ceilSecond(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Second
	}
	if r := d % time.Second; r != 0 {
		d += time.Second - r
	}
	return d
}

// writeQueryError maps a runQuery failure onto the wire: rate limit or
// admission overload (429), compile rejection (400), breaker or shed (503),
// deadline (504), client cancellation (499), execution failure (500). Only
// valid before the first response byte — a stream switches to in-band error
// records once its first record is out.
//
// Every 429 and 503 carries a Retry-After of at least 1 — even when the
// classifier's backoff hint is zero or sub-second. RFC 9110 allows 0, but a
// zero (or absent) hint makes well-behaved clients retry immediately, which
// is exactly wrong under overload; and the header unit is whole seconds, so
// sub-second hints must round up, never truncate to 0.
func (s *Server) writeQueryError(w http.ResponseWriter, ts *tenantState, err error, timeout time.Duration) {
	status, msg, retryAfter := s.classifyQueryError(ts, err, timeout)
	backpressure := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	if backpressure || retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(ceilSecond(retryAfter)/time.Second), 10))
	}
	writeError(w, status, "%s", msg)
}

// effectiveMaxRows resolves the per-request row cap (clients may lower the
// server bound but not exceed it).
func (s *Server) effectiveMaxRows(req *QueryRequest) int {
	maxRows := s.cfg.MaxRows
	if req.MaxRows > 0 && req.MaxRows < maxRows {
		maxRows = req.MaxRows
	}
	return maxRows
}

// summarize renders everything of p.resp except the row payload: the
// execution report, column names (in p.cols), total row count and the
// truncation flag. It returns the number of rows the wire carries (<=
// RowCount under the row cap). Both the buffered response and the streaming
// summary record derive from it, which keeps the two paths field-identical.
func (s *Server) summarize(p *preparedQuery, res *core.Results, rep *core.Report) (*QueryResponse, int) {
	p.resp = QueryResponse{
		SimLatencySeconds: rep.Latency,
		SimEnergyJoules:   rep.Energy,
		WallMicros:        rep.Wall.Microseconds(),
		Migrations:        rep.Migrations,
		Nodes:             rep.NodeCount,
	}
	resp := &p.resp
	v := res.First()
	if v.Model != nil {
		resp.Model = true
		return resp, 0
	}
	b := v.Batch
	if b == nil {
		return resp, 0
	}
	schema := b.Schema()
	for i := 0; i < schema.Len(); i++ {
		p.cols = append(p.cols, schema.Col(i).Name)
	}
	resp.Columns = p.cols
	resp.RowCount = b.Rows()
	n := b.Rows()
	if maxRows := s.effectiveMaxRows(&p.req); n > maxRows {
		n = maxRows
		resp.Truncated = true
	}
	return resp, n
}

// IngestRequest is the POST /ingest body: one write to one engine. Exactly
// one field group applies, matching the engine family.
type IngestRequest struct {
	Engine string `json:"engine"`
	// Relational: append one row (JSON values; numbers are coerced to the
	// column types, and an integer literal is kept exact).
	Table string `json:"table,omitempty"`
	Row   []any  `json:"row,omitempty"`
	// Timeseries: append one point.
	Series string  `json:"series,omitempty"`
	TS     int64   `json:"ts,omitempty"`
	Value  float64 `json:"value,omitempty"`
	// Key/value: put Data under Key.
	Key  string `json:"key,omitempty"`
	Data string `json:"data,omitempty"`
}

// IngestResponse is the POST /ingest success body.
type IngestResponse struct {
	OK bool `json:"ok"`
	// DataVersion is the global store mutation counter after the write.
	DataVersion uint64 `json:"data_version"`
}

// handleIngest serves the write half of mixed read/write workloads: it
// routes one write to an engine adapter. Writes deliberately skip admission
// control — they are single-store appends, far cheaper than plan execution —
// and their only interaction with the serving accelerations is bumping the
// target store's version so cached intermediates over the written data stop
// being addressable (those over other stores stay cached; that is the point
// of the version vector).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	// Writes share the tenant's token bucket with queries (one entitlement
	// per tenant, not one per endpoint) and answer an exhausted one exactly
	// like /query does.
	ts := s.tenants.state(tenant.FromHTTP(r))
	if ref := ts.enterRate(time.Now()); ref != nil {
		s.writeQueryError(w, ts, ref, 0)
		return
	}
	var req IngestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// A row number is an int64 when it is one exactly, else a float64; the
	// adapter coerces either to its column's type.
	for i, v := range req.Row {
		n, ok := v.(json.Number)
		if !ok {
			continue
		}
		if iv, err := n.Int64(); err == nil {
			req.Row[i] = iv
			continue
		}
		f, err := n.Float64()
		if err != nil {
			s.st.badRequest.Inc()
			writeError(w, http.StatusBadRequest, "bad request body: row value %d: %v", i, err)
			return
		}
		req.Row[i] = f
	}
	if req.Engine == "" {
		s.st.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "ingest needs an engine")
		return
	}
	if !s.rt.HasEngine(req.Engine) {
		s.st.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "unknown engine %q (registered: %v)", req.Engine, s.rt.Engines())
		return
	}
	// The write runs under the default deadline: the durability barrier can
	// wait on a stuck fsync, which must not pin the handler forever.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	err := s.rt.Ingest(ctx, req.Engine, adapter.Ingest{
		Table: req.Table, Row: req.Row,
		Series: req.Series, TS: req.TS, Value: req.Value,
		Key: req.Key, Data: []byte(req.Data),
	})
	switch {
	case err == nil:
		s.st.ingests.Inc()
		writeJSON(w, http.StatusOK, IngestResponse{OK: true, DataVersion: s.rt.DataVersion()})
	case errors.Is(err, core.ErrDurability), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Not the client's fault: durability failure (503), deadline (504) or
		// a client that went away (499), classified as /query classifies them.
		s.writeQueryError(w, ts, err, s.cfg.DefaultTimeout)
	default:
		// What is left is validation: an engine that takes no writes, a
		// missing table, a row that does not fit the schema.
		s.st.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"engines":  s.rt.Engines(),
		"inflight": s.adm.inflight(),
		"queued":   s.adm.queueDepth(),
		"tenants":  s.tenants.len(),
	})
}

// handleMetrics renders the stat table, the storage backend block, the
// per-(engine, op) aggregates and the per-tenant rows as Prometheus text.
// Every family is present from boot: nothing here creates a metric.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, block := range [][]stat{s.topLevel(), s.backendStats()} {
		writeProm(w, block, []promRow{{defs: block}})
	}
	writeOpProm(w, s.rt.OpStats())
	s.tenants.writeProm(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsJSON(s.topLevel()))
}

// ListenAndServe runs the server on addr until ctx is canceled, then drains
// gracefully: new work is rejected with 503 immediately, while in-flight
// requests — long streams included — get Config.DrainTimeout to finish
// before the listener is torn down.
func ListenAndServe(ctx context.Context, addr string, s *Server) error {
	hs := &http.Server{Addr: addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.StartDrain()
		dctx, dcancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		_ = s.Drain(dctx)
		dcancel()
		// In-flight handlers have returned (or overstayed the drain window);
		// Shutdown now only has idle connections to close.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
