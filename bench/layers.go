package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/lru"
	"polystorepp/internal/migrate"
	"polystorepp/internal/partition"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
	"polystorepp/internal/subplan"
	"polystorepp/internal/timeseries"
)

// The layer pass. Single-threaded, over the first requests of the same
// seeded stream, on two freshly booted deployments kept in lockstep:
//
//   - the "http" side takes each request through (*server.Server).ServeHTTP
//     with an in-memory response writer and no socket: server.handler;
//   - the "layers" side receives what the server does for that request as
//     calls into each layer's exported functions, made by the harness itself
//     — eide builders, Graph.Fingerprint/compiler.Key, compiler.TouchesOf,
//     Runtime.VersionVector, PlanCache.GetOrCompileKeyed, ExecuteStream,
//     Runtime.Ingest — skipping exactly what the server skipped (no compile
//     or execute on a result-cache hit).
//
// Two deployments because one cannot do both without the first call warming
// the subplan cache for the second; fed the same requests in the same order
// their caches, versions and feedback statistics move together. What the
// handler took beyond the layer calls is the server's own work (decode,
// tenant and admission, cache probe and publish, encode): server.residual.
// No span is recorded inside the server.

// layerRequests caps the lockstep loop.
const layerRequests = 500

// span is one timed call, written to trace-<workload>.jsonl.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // 0 for a request's root
	Name   string `json:"name"`
	Side   string `json:"side"` // "http" or "layers"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerResult is what the pass measured.
type layerResult struct {
	requests int
	spans    []span
	series   map[string][]float64 // metric -> one value per request the layer ran in
	values   map[string]float64   // metrics that are single numbers
	warnings []string

	epoch  time.Time
	nextID int
}

func (lr *layerResult) add(metric string, v float64) {
	lr.series[metric] = append(lr.series[metric], v)
}

// timed runs fn inside a span and returns its duration in microseconds.
func (lr *layerResult) timed(req, parent int, name, side string, fn func()) float64 {
	lr.nextID++
	id := lr.nextID
	t0 := time.Now()
	fn()
	t1 := time.Now()
	lr.spans = append(lr.spans, span{Req: req, ID: id, Parent: parent, Name: name, Side: side,
		Start: int64(t0.Sub(lr.epoch)), End: int64(t1.Sub(lr.epoch))})
	return float64(t1.Sub(t0)) / 1e3
}

// memWriter is an http.ResponseWriter that keeps the response in memory.
type memWriter struct {
	hdr    http.Header
	buf    bytes.Buffer
	status int
}

func (m *memWriter) Header() http.Header { return m.hdr }
func (m *memWriter) WriteHeader(s int)   { m.status = s }
func (m *memWriter) Flush()              {}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.buf.Write(b)
}

// serve takes one request through the handler with no socket.
func serve(srv *server.Server, mw *memWriter, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	mw.hdr, mw.status = http.Header{}, 0
	mw.buf.Reset()
	srv.ServeHTTP(mw, req)
	if mw.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, mw.status, bytes.TrimSpace(mw.buf.Bytes()))
	}
	return nil
}

// verdict is what the handler's reply says about how the request was served.
type verdict struct {
	ResultCache string  `json:"result_cache"`
	WallMicros  int64   `json:"wall_us"`
	SimLatency  float64 `json:"sim_latency_seconds"`
	SimEnergy   float64 `json:"sim_energy_joules"`
}

// readVerdict decodes the reply (the summary record of a stream).
func readVerdict(path string, body []byte) (verdict, error) {
	var v verdict
	if path == "/query/stream" {
		body = bytes.TrimSpace(body)
		if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
			body = body[i+1:]
		}
	}
	return v, json.Unmarshal(body, &v)
}

// discardSink is the streaming sink of the layers side: it takes the batches
// and drops them, so core.execute times the executor in streaming mode and
// the encode stays in server.residual.
type discardSink struct{}

func (discardSink) StartStream(ir.NodeID, cast.Schema) error { return nil }
func (discardSink) EmitBatch(ir.NodeID, *cast.Batch) error   { return nil }

// ingestOf renders a remembered write as the runtime's ingest value, decoded
// the way the handler decodes the wire body (JSON numbers are float64).
func ingestOf(w *write) (string, adapter.Ingest) {
	if w.series != "" {
		return tsEngine, adapter.Ingest{Series: w.series, TS: w.ts, Value: float64(60 + w.ts%40)}
	}
	return relEngine, adapter.Ingest{Table: "audit", Row: []any{float64(w.id), float64(w.id % 97), float64(w.id % 50)}}
}

// lockstep is the layers side of the pass: the second deployment plus the
// harness's own copies of the state the server keeps beside its runtime.
type lockstep struct {
	lr      *layerResult
	d       *deployment
	plans   *compiler.PlanCache          // the server's default size
	touches *lru.Cache[compiler.Touches] // and its touches memo
	engine  *relational.Engine
	host    string
	// offNodes of allNodes executed non-migrate nodes ran off the host.
	offNodes, allNodes int
}

// layerPass runs the lockstep loop, the tracing-overhead comparison and the
// per-module probes.
func layerPass(cfg runConfig, w *workload) (*layerResult, error) {
	httpSide, err := boot(cfg.seed, cfg.scale, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer httpSide.close()
	layers, err := boot(cfg.seed, cfg.scale, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer layers.close()

	lr := &layerResult{series: map[string][]float64{}, values: map[string]float64{}, epoch: time.Now()}
	ls := &lockstep{
		lr: lr, d: layers, plans: compiler.NewPlanCache(128), touches: lru.New[compiler.Touches](128),
		engine: relational.NewEngine(layers.data.rel), host: hw.NewHostCPU().Name,
	}
	budget := cfg.window / 2
	if budget > 5*time.Second {
		budget = 5 * time.Second
	}
	var (
		ctx      = context.Background()
		ws       = newWriteState(1, cfg.scale)
		mw       = &memWriter{}
		accounts int
	)
	deadline := time.Now().Add(budget)
	pos := 0
	for ; pos < layerRequests && time.Now().Before(deadline); pos++ {
		o := w.at(pos, 0, ws)
		var serveErr error
		handler := lr.timed(pos, 0, "server.handler", "http", func() { serveErr = serve(httpSide.srv, mw, o.path, o.body) })
		if serveErr != nil {
			return nil, serveErr
		}
		root := lr.nextID
		lr.add("server.handler_us", handler)
		var children float64
		if o.write != nil {
			eng, ing := ingestOf(o.write)
			children = lr.timed(pos, root, "core.ingest", "layers", func() { err = layers.rt.Ingest(ctx, eng, ing) })
		} else {
			var v verdict
			if v, err = readVerdict(o.path, mw.buf.Bytes()); err != nil {
				return nil, fmt.Errorf("decode handler reply: %w", err)
			}
			lr.add("hw.sim_latency_s_p50", v.SimLatency)
			lr.add("hw.sim_energy_j_p50", v.SimEnergy)
			lr.add("handler_read_us", handler)
			children, err = ls.read(ctx, pos, root, o.path == "/query/stream", w.reads[o.key], v)
		}
		if err != nil {
			return nil, err
		}
		residual := handler - children
		lr.add("server.residual_us", residual)
		lr.add("server.residual_share", residual/handler)
		if residual >= -0.05*handler {
			accounts++
		}
	}
	lr.requests = pos
	if pos == 0 {
		return nil, fmt.Errorf("layer pass ran no request inside its %s budget", budget)
	}
	lr.values["client.trace_accounted_ratio"] = float64(accounts) / float64(pos)
	if ls.allNodes > 0 {
		lr.values["hw.offload_ratio"] = float64(ls.offNodes) / float64(ls.allNodes)
	}
	if accounts < pos {
		lr.warnings = append(lr.warnings, fmt.Sprintf("layer pass on %s: on %d of %d requests the layer calls took over 5%% longer than the whole handler",
			w.name, pos-accounts, pos))
	}

	if err := lr.traceOverhead(httpSide, w, ws, pos, budget/4); err != nil {
		return nil, err
	}
	if err := lr.probes(ctx, layers); err != nil {
		return nil, err
	}
	return lr, nil
}

// read makes, on the layers side, the calls the handler made for one read
// request, each as a child span of root. It returns the children's summed
// length in microseconds.
func (ls *lockstep) read(ctx context.Context, pos, root int, stream bool, spec readSpec, v verdict) (float64, error) {
	lr := ls.lr
	children := 0.0
	child := func(metric, name string, fn func()) {
		us := lr.timed(pos, root, name, "layers", fn)
		children += us
		lr.add(metric, us)
	}
	var (
		prog *eide.Program
		err  error
		key  string
		tch  compiler.Touches
	)
	child("eide.build_us", "eide.build", func() { prog, err = buildProgram(spec) })
	if err != nil {
		return 0, err
	}
	child("ir.fingerprint_us", "ir.fingerprint", func() { key = compiler.Key(prog.Graph(), compileOpts) })
	if t, ok := ls.touches.Get(key); ok {
		tch = t
	} else {
		child("compiler.touches_us", "compiler.touches", func() { tch = compiler.TouchesOf(prog.Graph()) })
		ls.touches.Put(key, tch)
	}
	child("core.version_vector_us", "core.version_vector", func() { _ = ls.d.rt.VersionVector(tch) })
	if v.ResultCache == "hit" {
		return children, nil // the server neither compiled nor executed
	}

	var (
		plan *compiler.Plan
		hit  bool
	)
	us := lr.timed(pos, root, "compiler.compile", "layers", func() {
		plan, hit, err = ls.plans.GetOrCompileKeyed(key, prog.Graph(), compileOpts)
	})
	if err != nil {
		return 0, err
	}
	children += us
	if hit {
		lr.spans[len(lr.spans)-1].Name = "compiler.plancache_hit"
		lr.add("compiler.plancache_hit_us", us)
	} else {
		lr.add("compiler.compile_us", us)
		// The hit path, for workloads that never take it: the same lookup
		// again, outside the request's spans.
		t0 := time.Now()
		_, _, _ = ls.plans.GetOrCompileKeyed(key, prog.Graph(), compileOpts)
		lr.add("compiler.plancache_hit_us", float64(time.Since(t0))/1e3)
	}

	// The lockstep execution yields the Report: the per-node breakdown, and
	// on a stream the executor's time with a sink that drops the batches.
	var sink core.ResultSink
	if stream {
		sink = discardSink{}
	}
	var (
		res *core.Results
		rep *core.Report
	)
	lr.timed(pos, root, "core.execute.lockstep", "layers", func() { res, rep, err = ls.d.rt.ExecuteStream(ctx, plan, sink) })
	if err != nil {
		return 0, err
	}
	lockstepSpan := len(lr.spans) - 1
	// core.execute is Report.Wall. For a buffered request it is the
	// handler's own, as its reply reports it: two runs of a millisecond plan
	// differ by more than the residual they would be subtracted for. A
	// streamed request's own Report includes the NDJSON encode (the sink runs
	// inside the executor), so there it is the lockstep Report's, and the
	// encode stays in server.residual. Only the length is known: the span is
	// placed at the handler's start.
	wall := time.Duration(v.WallMicros) * time.Microsecond
	if stream {
		wall = rep.Wall
	}
	lr.nextID++
	hs := lr.spans[root-1] // ids are 1-based positions in lr.spans
	lr.spans = append(lr.spans, span{Req: pos, ID: lr.nextID, Parent: root, Name: "core.execute", Side: "http",
		Start: hs.Start, End: hs.Start + int64(wall)})
	lr.spans[lockstepSpan].Parent = lr.nextID // detail of core.execute, not a sibling
	children += float64(wall) / 1e3
	lr.add("core.execute_us", float64(wall)/1e3)
	relNode := ls.absorbReport(plan, res, rep)

	// Engine.Query on a sample: the same statement run natively, without IR,
	// adapter or executor around it.
	if spec.sql != "" && pos%4 == 0 {
		t0 := time.Now()
		if _, err := relational.Parse(spec.sql); err != nil {
			return 0, err
		}
		lr.add("relational.parse_us", float64(time.Since(t0))/1e3)
		t0 = time.Now()
		if _, _, err := ls.engine.Query(ctx, spec.sql); err != nil {
			return 0, err
		}
		q := float64(time.Since(t0)) / 1e3
		lr.add("relational.query_us", q)
		lr.add("adapter.overhead_us", relNode-q)
	}
	return children, nil
}

// absorbReport folds one execution report into the node-level metrics and
// returns the relational engines' summed node wall time in microseconds.
func (ls *lockstep) absorbReport(plan *compiler.Plan, res *core.Results, rep *core.Report) float64 {
	lr := ls.lr
	family := map[string]float64{}
	var nodeSum time.Duration
	var relRowsIn int64
	for _, n := range rep.Nodes {
		nodeSum += n.Wall
		us := float64(n.Wall) / 1e3
		switch {
		case n.Kind == ir.OpMigrate:
			family["migrate"] += us
			continue
		case n.Engine == relEngine:
			family["relational"] += us
			relRowsIn += n.RowsIn
		case n.Engine == tsEngine:
			family["timeseries"] += us
		case n.Engine == textEngine:
			family["textstore"] += us
		case n.Engine == mlEngine:
			family["mlengine"] += us
		}
		ls.allNodes++
		if n.Device != ls.host {
			ls.offNodes++
		}
	}
	for f, us := range family {
		if us > 0 { // a node replayed from the subplan cache did not run
			lr.add(f+".node_us", us)
		}
	}
	chain := true
	for _, st := range plan.Stages {
		if len(st) > 1 {
			chain = false
		}
	}
	if chain {
		lr.add("core.overhead_us", float64(rep.Wall-nodeSum)/1e3)
	}
	if rep.Wall > 0 {
		lr.add("core.parallelism", float64(nodeSum)/float64(rep.Wall))
	}
	lr.add("migrate.bytes_per_req", float64(rep.MigratedBytes))
	if out := res.First().Rows(); out > 0 && relRowsIn > 0 {
		lr.add("relational.rows_in_per_row_out", float64(relRowsIn)/float64(out))
	}
	return family["relational"]
}

// traceOverhead continues the stream on the http side alone, alternating
// plain requests with ones that ask for their span tree, and compares the
// handler's median time. Different keys, same population.
func (lr *layerResult) traceOverhead(d *deployment, w *workload, ws *writeState, from int, budget time.Duration) error {
	var plain, traced []float64
	mw := &memWriter{}
	deadline := time.Now().Add(budget)
	for pos := from; len(traced) < 100 && time.Now().Before(deadline); pos++ {
		o := w.at(pos, 0, ws)
		if o.write != nil {
			continue
		}
		body, dst := o.body, &plain
		if len(plain) > len(traced) {
			body = append(append([]byte(nil), o.body[:len(o.body)-1]...), `,"trace":true}`...)
			dst = &traced
		}
		t0 := time.Now()
		if err := serve(d.srv, mw, o.path, body); err != nil {
			return err
		}
		*dst = append(*dst, float64(time.Since(t0))/1e3)
	}
	if p, t := median(plain), median(traced); p > 0 && len(traced) > 0 {
		lr.values["obs.trace_overhead_pct"] = 100 * (t - p) / p
	}
	return nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// medianOf runs fn reps times and returns the median of what it reports.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// probes times single modules directly, on the layers side's data: calls no
// request isolates (row boxing, codecs, the migrator, cache operations, the
// partition pool, checkpoint) and the durable-versus-memory ingest cost.
func (lr *layerResult) probes(ctx context.Context, d *deployment) error {
	events, err := d.data.rel.Table("events")
	if err != nil {
		return err
	}
	snap := events.Snapshot()
	batch, err := snap.ViewRange(0, min(10000, snap.Rows()))
	if err != nil {
		return err
	}
	per10k := 10000 / float64(batch.Rows())
	if lr.values["cast.row_box_us_per_10k"], err = medianOf(5, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < batch.Rows(); i++ {
			if _, err := batch.Row(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / 1e3 * per10k, nil
	}); err != nil {
		return err
	}
	encode := func(write func(io.Writer, *cast.Batch) error) (float64, error) {
		return medianOf(5, func() (float64, error) {
			var cw countWriter
			t0 := time.Now()
			if err := write(&cw, batch); err != nil {
				return 0, err
			}
			return float64(cw.n) / 1e6 / time.Since(t0).Seconds(), nil
		})
	}
	if lr.values["cast.binary_encode_mb_per_s"], err = encode(cast.WriteBinary); err != nil {
		return err
	}
	if lr.values["cast.csv_encode_mb_per_s"], err = encode(cast.WriteCSV); err != nil {
		return err
	}

	// The migrator, on the pipeline's cross-engine intermediate: the
	// per-patient vitals summary that leaves the timeseries engine.
	summary, err := twinBatch(d.rt, readSpec{steps: []server.ProgramStep{
		{ID: "s", Op: "tswindow", Engine: tsEngine, SeriesPrefix: "vitals/", Agg: "mean"}}})
	if err != nil {
		return err
	}
	mig := migrate.New(hw.NewHostCPU(), hw.NewRDMANIC())
	if lr.values["migrate.wall_us_per_mb"], err = medianOf(5, func() (float64, error) {
		t0 := time.Now()
		_, bd, err := mig.Migrate(ctx, summary, migrate.Pipe)
		if err != nil || bd.WireBytes == 0 {
			return 0, err
		}
		return float64(time.Since(t0)) / 1e3 / (float64(bd.WireBytes) / 1e6), nil
	}); err != nil {
		return err
	}

	names := d.data.ts.SeriesNames()
	t0 := time.Now()
	const windows = 400
	for i := 0; i < windows; i++ {
		if _, err := d.data.ts.WindowN(names[i%len(names)], 0, 1<<62, int64(time.Hour), timeseries.AggMean, 0); err != nil {
			return err
		}
	}
	lr.values["timeseries.window_us"] = float64(time.Since(t0)) / 1e3 / windows
	scratch := timeseries.New("probe")
	const appends = 20000
	t0 = time.Now()
	for i := 0; i < appends; i++ {
		if err := scratch.Append("probe/s", int64(i+1), float64(i%97)); err != nil {
			return err
		}
	}
	lr.values["timeseries.append_us"] = float64(time.Since(t0)) / 1e3 / appends

	const doCalls = 2000
	pool := partition.Shared()
	t0 = time.Now()
	for i := 0; i < doCalls; i++ {
		if err := pool.Do(ctx, 4, func(int) error { return nil }); err != nil {
			return err
		}
	}
	lr.values["partition.do_overhead_us"] = float64(time.Since(t0)) / 1e3 / doCalls

	lr.cacheProbes()

	// Ingest on the wal backend against the same writes on plain stores with
	// no durability barrier: the difference is what durability costs.
	plainRel, plainTS := relational.NewStore(relEngine), timeseries.New(tsEngine)
	if _, err := plainRel.CreateTable("audit", auditSchema()); err != nil {
		return err
	}
	plain := core.NewRuntime(hw.NewHostCPU())
	plain.Register(adapter.NewRelational(relEngine, relational.NewEngine(plainRel)))
	plain.Register(adapter.NewTimeseries(tsEngine, plainTS))
	var durable, memory []float64
	for i := int64(0); i < 200; i++ {
		w := &write{id: 1<<40 + i}
		if i%2 == 0 {
			w = &write{series: "bench/probe/hr", ts: i + 1}
		}
		eng, ing := ingestOf(w)
		t0 := time.Now()
		if err := d.rt.Ingest(ctx, eng, ing); err != nil {
			return err
		}
		durable = append(durable, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		if err := plain.Ingest(ctx, eng, ing); err != nil {
			return err
		}
		memory = append(memory, float64(time.Since(t0))/1e3)
	}
	lr.values["core.ingest_us"] = median(durable)
	lr.values["backend.durable_cost_us"] = median(durable) - median(memory)

	t0 = time.Now()
	if err := d.bk.Checkpoint(); err != nil {
		return err
	}
	lr.values["backend.snapshot_mb_per_s"] = float64(d.bk.Stats().SnapshotLastBytes) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// cacheProbes times Get and Put on full caches, mean of 100k operations.
func (lr *layerResult) cacheProbes() {
	const ops = 100000
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	cc := lru.NewCost[int](256, 0)
	for i := 0; i < 256; i++ {
		cc.Put(keys[i], i, 1)
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		cc.Get(keys[i%256])
	}
	lr.values["lru.cost_get_ns"] = float64(time.Since(t0)) / ops
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		cc.Put(keys[i], i, 1) // the first 256 are present, every later one evicts
	}
	lr.values["lru.cost_put_ns"] = float64(time.Since(t0)) / ops

	sc := subplan.NewCache(64 << 20)
	for i := 0; i < 1024; i++ {
		sc.Put(keys[i], &subplan.Entry{Bytes: 4096}, "anon")
	}
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		sc.Get(keys[i%1024])
	}
	lr.values["subplan.get_ns"] = float64(time.Since(t0)) / ops
}

// report writes the pass's metrics: the median over the requests each layer
// ran in, and the single-number probes.
func (lr *layerResult) report(m metricSet, latP50ms float64) {
	for name, vals := range lr.series {
		if name == "handler_read_us" {
			continue
		}
		m.put(name, median(vals))
	}
	for name, v := range lr.values {
		m.put(name, v)
	}
	if reads := lr.series["handler_read_us"]; len(reads) > 0 && latP50ms > 0 {
		m.put("client.http_overhead_us", latP50ms*1e3-median(reads))
	}
}

// writeTrace writes every span, one JSON object per line.
func (lr *layerResult) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range lr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
