// The stat table. Every number the server reports is declared here once —
// its /stats key, its name (the /metrics family once sanitized), its kind
// and its help text — next to the handle the request path bumps or the
// getter that reads a value another component owns. /stats (JSON),
// /metrics (Prometheus text) and the generated block of docs/operations.md
// are three renderers over these declarations; none of them names a stat.
package server

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"polystorepp/internal/backend"
	"polystorepp/internal/metrics"
	"polystorepp/internal/obs"
	"polystorepp/internal/partition"
)

// A stat's kind is its /metrics TYPE; info declarations (configuration, a
// flag, a list or a nested block) appear on /stats only.
const (
	kindCounter   = "counter"   // monotonic count
	kindGauge     = "gauge"     // point-in-time number
	kindHistogram = "histogram" // latency distribution, observed in seconds
	kindInfo      = "info"
)

// stat is one declaration. An empty key keeps it off /stats, an empty name
// off /metrics.
type stat struct {
	key, name string
	kind      string
	help      string
	get       func() any         // current value, in its /stats JSON type
	hist      *metrics.Histogram // kindHistogram only
}

// statsJSON renders the declarations that carry a /stats key.
func statsJSON(defs []stat) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		if d.key != "" {
			out[d.key] = d.get()
		}
	}
	return out
}

// promRow is one labelled source of a block: the block's declarations bound
// to it, contributing one sample per family.
type promRow struct {
	labels string // rendered label set, "" for an unlabelled block
	defs   []stat
}

// writeProm renders the declarations that carry a family name: schema names
// the families, each row adds its sample, in label order. An unlabelled
// block is its own single row.
func writeProm(w io.Writer, schema []stat, rows []promRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
	for i, d := range schema {
		if d.name == "" {
			continue
		}
		family := metrics.SanitizeMetricName(d.name)
		if d.kind == kindHistogram {
			d.hist.WriteProm(w, family, d.help)
			continue
		}
		metrics.WriteHeader(w, family, d.kind, d.help)
		for _, row := range rows {
			metrics.WriteSample(w, family, row.labels, row.defs[i].get())
		}
	}
}

// val binds an already-read value as a declaration's getter.
func val(v any) func() any { return func() any { return v } }

// latencyBounds are the request-latency histogram buckets (seconds), 100µs
// to 30s — the span between a cache-served hot query and a deadline-bounded
// straggler.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// quantilesUS is a latency histogram's /stats rendering: count and
// p50/p95/p99 in microseconds (bench/ reads it).
func quantilesUS(h *metrics.Histogram) map[string]float64 {
	n, _ := h.Snapshot()
	return map[string]float64{
		"count": float64(n),
		"p50":   h.Quantile(0.50) * 1e6,
		"p95":   h.Quantile(0.95) * 1e6,
		"p99":   h.Quantile(0.99) * 1e6,
	}
}

// serverStats are the handles the request path bumps, created by the
// declarations in newStatTable: each server counts its own requests, while
// the runtime's counters (core/stats.go) are shared by every server over it.
type serverStats struct {
	requests, rejected, badRequest, execErrors, deadline, ingests *metrics.Counter
	planHits, planMisses                                          *metrics.Counter
	flightShared                                                  *metrics.Counter
	streamRequests, streamRows, streamBatches                     *metrics.Counter
	streamErrorsInband, streamAborted                             *metrics.Counter
	tenantRate, tenantBreaker, drainRejected                      *metrics.Counter
	shedCold, shedDeadline                                        *metrics.Counter
	latency, ttfr                                                 *metrics.Histogram
}

// newStatTable declares every top-level stat of s. Called once from New,
// after every component the getters read has been built.
func newStatTable(s *Server) (st serverStats, defs []stat) {
	add := func(key, name, kind, help string, get func() any) {
		defs = append(defs, stat{key: key, name: name, kind: kind, help: help, get: get})
	}
	counter := func(key, name, help string) *metrics.Counter {
		c := new(metrics.Counter)
		add(key, name, kindCounter, help, func() any { return c.Value() })
		return c
	}
	// runtimeStats renders the runtime's own declarations (core/stats.go),
	// bound to the handles core bumps: the subplan cache's, or the rest.
	runtimeStats := func(subplan bool) {
		for _, d := range s.rt.Stats() {
			switch {
			case strings.HasPrefix(d.Name, "core.subplan.") != subplan:
			case d.Gauge != nil:
				add(d.Key, d.Name, kindGauge, d.Help, func() any { return d.Gauge.Value() })
			default:
				add(d.Key, d.Name, kindCounter, d.Help, func() any { return d.Counter.Value() })
			}
		}
	}
	histogram := func(key, name, help string) *metrics.Histogram {
		h := metrics.NewHistogram(latencyBounds)
		defs = append(defs, stat{key: key, name: name, kind: kindHistogram, help: help, get: func() any { return quantilesUS(h) }, hist: h})
		return h
	}

	// Requests and their outcomes.
	st.requests = counter("requests", "server.requests", "Requests received on /query and /query/stream.")
	st.rejected = counter("rejected", "server.rejected", "Requests refused with 429 or 503: rate limit, queue overflow or shedding.")
	st.badRequest = counter("bad_requests", "server.bad_request", "Requests answered 400, or 413 for a body over 1 MiB: malformed or oversized body, unknown engine, compile or ingest validation error, or a statement error the engine found at execution (unknown table or column, duplicate column name, type mismatch, unsupported operator).")
	st.execErrors = counter("exec_errors", "server.exec_errors", "Requests that failed during execution or encoding (500), or answered 503 because every shared leader was canceled or a write could not be made durable.")
	st.deadline = counter("deadline_errors", "server.deadline", "Requests that outlived their deadline (504).")
	st.ingests = counter("ingests", "server.ingests", "Writes acknowledged on /ingest.")
	st.latency = histogram("request_latency_us", "server.request.latency_seconds", "Latency of served queries, buffered and streamed (seconds on /metrics, microseconds on /stats).")
	add("inflight", "server.inflight", kindGauge, "Executions holding a worker slot.", func() any { return s.adm.inflight() })
	add("queued", "server.queued", kindGauge, "Requests waiting for a worker slot.", func() any { return s.adm.queueDepth() })
	add("workers", "", kindInfo, "Configured worker slots.", val(s.cfg.Workers))
	add("queue_depth", "", kindInfo, "Configured admission queue bound.", val(max(0, s.cfg.QueueDepth)))
	add("data_version", "server.data_version", kindGauge, "Sum of every store's mutation counter.", func() any { return s.rt.DataVersion() })
	add("engines", "", kindInfo, "Registered engine instances.", func() any { return s.rt.Engines() })
	add("default_level", "", kindInfo, "Compiler optimization level every request compiles under.", val(s.opts.Level))
	add("default_accel", "", kindInfo, "Whether plans may target accelerators.", val(s.opts.Accel))
	add("default_timeout", "", kindInfo, "Per-request deadline when the request sets none.", val(s.cfg.DefaultTimeout.String()))

	// Plan cache, single-flight.
	st.planHits = counter("plan_cache_hits", "server.plancache.hits", "Queries prepared with a cached plan: a SQL statement or program of a shape compiled before skips the parser, the IR build, the fingerprint and the compiler; any other request skips the compiler.")
	st.planMisses = counter("plan_cache_miss", "server.plancache.misses", "Queries prepared without a cached plan; their execution compiles one.")
	add("single_flight", "", kindInfo, "Whether identical in-flight queries share one execution.", func() any { return s.flight != nil })
	st.flightShared = counter("single_flight_shared", "server.singleflight.shared", "Requests that shared another request's in-flight execution.")

	// Subplan cache (counters the runtime bumps; its gauges are in
	// snapshotStats).
	runtimeStats(true)

	// Streaming path.
	st.streamRequests = counter("stream_requests", "server.stream.requests", "Requests received on /query/stream.")
	st.streamRows = counter("stream_rows", "server.stream.rows", "Rows written to streaming responses.")
	st.streamBatches = counter("stream_batches", "server.stream.batches", "Batch records written to streaming responses.")
	st.streamErrorsInband = counter("stream_errors_inband", "server.stream.errors_inband", "Streams that failed after the first byte and ended with an in-band error record.")
	st.streamAborted = counter("", "server.stream.aborted", "Streams abandoned because the client stopped reading.")
	st.ttfr = histogram("stream_ttfr_us", "server.stream.ttfr_seconds", "Time to the first streamed record (seconds on /metrics, microseconds on /stats).")

	// Executor.
	runtimeStats(false)
	add("op_stats", "", kindInfo, "Per-(engine, op) execution aggregates, keyed engine/op (fields below).", func() any {
		out := make(map[string]any)
		for _, e := range s.rt.OpStats().Entries() {
			out[e.Engine+"/"+e.Op] = statsJSON(opDefs(e))
		}
		return out
	})
	add("traces_recorded", "", kindCounter, "Request traces kept by the flight recorder.", func() any { _, _, n := s.traces.Snapshot(); return n })

	// Tenancy, shedding, drain.
	add("draining", "", kindInfo, "Whether the server is refusing new work for shutdown.", func() any { return s.draining.Load() })
	add("tenant_count", "server.tenants", kindGauge, "Live tenant records.", func() any { return s.tenants.len() })
	st.tenantRate = counter("tenant_ratelimited", "server.tenant.rate", "Requests refused by a tenant's token bucket (429).")
	st.tenantBreaker = counter("breaker_rejects", "server.tenant.breaker", "Requests refused by an open tenant circuit breaker (503).")
	st.shedCold = counter("tenant_shed_cold", "server.shed.cold", "Cold executions shed under overload.")
	st.shedDeadline = counter("tenant_shed_deadline", "server.shed.deadline", "Executions shed because the queue wait would outlive their deadline.")
	add("", "server.shed.service_ewma_seconds", kindGauge, "The shedder's service-time estimate (0 before the first execution).", func() any { return s.adm.serviceEWMA().Seconds() })
	st.drainRejected = counter("drain_rejected", "server.drain.rejected", "Requests refused with 503 while draining.")
	add("tenants", "", kindInfo, "Per-tenant rows (fields below).", func() any {
		sp, _ := s.rt.SubplanCacheStats()
		return s.tenants.statsJSON(sp.Owners)
	})

	add("backend", "", kindInfo, "Storage backend block (fields below).", func() any { return statsJSON(s.backendStats()) })
	return st, defs
}

// snapshotStats declares the top-level rows whose values arrive together in
// one snapshot another component owns — plan cache, subplan cache,
// partition pool — reading each snapshot once per scrape rather than once
// per row.
func (s *Server) snapshotStats() []stat {
	sp, spOn := s.rt.SubplanCacheStats()
	spawned, inlined := partition.Shared().Stats()
	return []stat{
		{key: "plan_cache_size", name: "server.plancache.size", kind: kindGauge, help: "Plan-cache entries: one per compiled plan under its plan key, and one per SQL or program shape mapped to its plan.", get: val(s.cache.Len())},
		{key: "subplan_cache_enabled", kind: kindInfo, help: "Whether materialized intermediates are cached.", get: val(spOn)},
		{key: "subplan_cache_entries", name: "core.subplan.entries", kind: kindGauge, help: "Intermediates cached.", get: val(sp.Entries)},
		{key: "subplan_cache_bytes", name: "core.subplan.bytes", kind: kindGauge, help: "Bytes of the cached intermediates.", get: val(sp.Cost)},
		{key: "subplan_cache_max_bytes", kind: kindInfo, help: "Subplan-cache byte budget.", get: val(sp.MaxCost)},
		{key: "subplan_cache_evictions", name: "core.subplan.evictions", kind: kindGauge, help: "Intermediates evicted for space.", get: val(sp.Evictions)},
		{key: "partition_spawned", kind: kindCounter, help: "Partition tasks run on a pool goroutine.", get: val(spawned)},
		{key: "partition_inlined", kind: kindCounter, help: "Partition tasks run inline on the caller.", get: val(inlined)},
	}
}

// topLevel is the top-level block of one scrape: the declarations of
// newStatTable followed by snapshotStats.
func (s *Server) topLevel() []stat {
	return append(s.stats[:len(s.stats):len(s.stats)], s.snapshotStats()...)
}

// opDefs declares one op_stats row — the fields of its /stats entry and its
// samples in the core_op_* families, which carry engine and op labels —
// bound to one (engine, op) aggregate.
func opDefs(e *obs.OpEntry) []stat {
	n, _ := e.Latency.Snapshot()
	us := func(q float64) int64 { return int64(e.Latency.Quantile(q)) }
	return []stat{
		{key: "engine", kind: kindInfo, help: "Engine instance that ran the operator.", get: val(e.Engine)},
		{key: "op", kind: kindInfo, help: "Operator kind.", get: val(e.Op)},
		{key: "count", name: "core.op.count", kind: kindCounter, help: "Executions of the operator.", get: val(n)},
		{key: "rows_in", name: "core.op.rows_in_total", kind: kindCounter, help: "Rows the executions consumed.", get: val(e.RowsIn.Load())},
		{key: "rows_out", name: "core.op.rows_out_total", kind: kindCounter, help: "Rows the executions produced.", get: val(e.RowsOut.Load())},
		{key: "bytes_in", name: "core.op.bytes_in_total", kind: kindCounter, help: "Bytes the executions consumed.", get: val(e.BytesIn.Load())},
		{key: "bytes_out", name: "core.op.bytes_out_total", kind: kindCounter, help: "Bytes the executions produced.", get: val(e.BytesOut.Load())},
		{key: "wall_seconds", name: "core.op.wall_seconds_total", kind: kindCounter, help: "Summed host wall time of the executions, in seconds.", get: val(float64(e.WallNanos.Load()) / 1e9)},
		{key: "p50_us", name: "core.op.p50_us", kind: kindGauge, help: "Median execution latency in microseconds (a bucket upper bound).", get: val(us(0.50))},
		{key: "p95_us", name: "core.op.p95_us", kind: kindGauge, help: "p95 execution latency in microseconds (a bucket upper bound).", get: val(us(0.95))},
		{key: "p99_us", name: "core.op.p99_us", kind: kindGauge, help: "p99 execution latency in microseconds (a bucket upper bound).", get: val(us(0.99))},
		{key: "max_parts", name: "core.op.max_parts", kind: kindGauge, help: "Widest partition fan-out of one execution.", get: val(int64(e.MaxParts.Value()))},
	}
}

// opSchema is the op_stats row schema: the declarations over an empty
// aggregate, which name the core_op_* families before any operator ran.
var opSchema = opDefs(&obs.OpEntry{Latency: new(metrics.Histogram)})

// writeOpProm emits the core_op_* families with one sample per aggregate,
// labelled by engine and op.
func writeOpProm(w io.Writer, ops *obs.OpStats) {
	var rows []promRow
	for _, e := range ops.Entries() {
		rows = append(rows, promRow{labels: fmt.Sprintf("engine=%q,op=%q", e.Engine, e.Op), defs: opDefs(e)})
	}
	writeProm(w, opSchema, rows)
}

// backendStats declares the storage backend block over one Stats snapshot:
// the "backend" object on /stats and the backend_* families on /metrics.
// Deployments without a backend report a zero block of kind "memory", so
// dashboards key off one shape either way.
func (s *Server) backendStats() []stat {
	bs := backend.Stats{Kind: "memory"}
	if s.cfg.Backend != nil {
		bs = s.cfg.Backend.Stats()
	}
	volatile := bs.Volatile(s.rt.Engines())
	return []stat{
		{key: "kind", kind: kindInfo, help: "Backend kind: wal, or memory when the deployment has none.", get: val(bs.Kind)},
		{key: "durable", kind: kindInfo, help: "Whether acknowledged writes survive a restart.", get: val(bs.Durable)},
		{key: "stores", kind: kindInfo, help: "Attached stores: what a restart keeps.", get: val(append([]string{}, bs.Stores...))},
		{key: "volatile_engines", kind: kindInfo, help: "Registered engines that are not attached stores: what a restart loses.", get: val(volatile)},
		{name: "backend.volatile_engines", kind: kindGauge, help: "Number of registered engines whose state a restart loses.", get: val(len(volatile))},
		{key: "wal_appends", name: "backend.wal.appends", kind: kindGauge, help: "Records journaled.", get: val(bs.WALAppends)},
		{key: "wal_bytes", name: "backend.wal.bytes", kind: kindGauge, help: "Framed bytes appended to the log.", get: val(bs.WALBytes)},
		{key: "wal_fsyncs", name: "backend.wal.fsyncs", kind: kindGauge, help: "fsync calls issued.", get: val(bs.WALFsyncs)},
		{key: "wal_errors", name: "backend.wal.errors", kind: kindGauge, help: "Write or fsync failures (sticky: the barrier refuses to acknowledge after one).", get: val(bs.WALErrors)},
		{key: "wal_segment_bytes", name: "backend.wal.segment_bytes", kind: kindGauge, help: "Bytes in the active segment (the snapshot trigger's input).", get: val(bs.WALSegmentBytes)},
		{key: "replay_records", name: "backend.replay.records", kind: kindGauge, help: "Records applied by the last recovery.", get: val(bs.ReplayRecords)},
		{key: "replay_skipped", name: "backend.replay.skipped", kind: kindGauge, help: "Records the last recovery skipped (covered by the snapshot, or unroutable).", get: val(bs.ReplaySkipped)},
		{key: "replay_bytes", name: "backend.replay.bytes", kind: kindGauge, help: "Payload bytes read by the last recovery.", get: val(bs.ReplayBytes)},
		{key: "replay_truncated", name: "backend.replay.truncated", kind: kindGauge, help: "1 when the last recovery cut a torn tail.", get: val(bs.ReplayTruncated)},
		{key: "replay_snapshot", name: "backend.replay.snapshot", kind: kindGauge, help: "1 when the last recovery loaded a snapshot.", get: val(bs.ReplaySnapshot)},
		{key: "snapshot_writes", name: "backend.snapshot.writes", kind: kindGauge, help: "Snapshots written since open.", get: val(bs.SnapshotWrites)},
		{key: "snapshot_last_bytes", name: "backend.snapshot.last_bytes", kind: kindGauge, help: "Size of the most recent snapshot.", get: val(bs.SnapshotLastBytes)},
		{key: "snapshot_trigger", kind: kindInfo, help: "Log size that forces a snapshot.", get: val(bs.SnapshotTrigger)},
	}
}
