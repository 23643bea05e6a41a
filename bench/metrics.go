package main

// The metric catalogue: the one definition BENCHMARK.json, the harness output
// and the self-test all agree on (bench_test.go asserts the three match name
// for name and unit for unit).

// metricDef is one catalogued metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. Every workload produces every one of them
// and none can read 0. They are the quantities a caller pays for that do not
// depend on the host's clock: on this two-core shared sandbox no wall-clock
// metric repeats within the largest bound the contract allows (README
// "Steadiness"), so throughput and latency live in perLayer as client.*
// diagnostics, as do the write-path, time-to-first-row and failure metrics
// that only some workloads produce.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.15},
	{"resp_kb_per_req", "KiB", "lower", 0.15},
}

// perLayer are the single-layer metrics, named <module>.<metric>. Counts come
// from the /stats delta around the measured window; timings come from the
// layer pass (layers.go). They carry no bound.
var perLayer = []metricDef{
	// The client's own view: diagnostics that are not gated.
	{Name: "client.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ttfr_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.guard_violations", Unit: "count", Better: "lower"},
	{Name: "client.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "client.trace_accounted_ratio", Unit: "ratio", Better: "higher"},

	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.residual_us", Unit: "us", Better: "lower"},
	{Name: "server.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.single_flight_shared", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.stream_rows", Unit: "count", Better: "higher"},

	{Name: "eide.build_us", Unit: "us", Better: "lower"},
	{Name: "ir.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "compiler.compile_us", Unit: "us", Better: "lower"},
	{Name: "compiler.plancache_hit_us", Unit: "us", Better: "lower"},
	{Name: "compiler.touches_us", Unit: "us", Better: "lower"},

	{Name: "core.execute_us", Unit: "us", Better: "lower"},
	{Name: "core.version_vector_us", Unit: "us", Better: "lower"},
	{Name: "core.overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "core.subplan_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.subplan_bytes_served", Unit: "count", Better: "higher"},
	{Name: "core.ingest_us", Unit: "us", Better: "lower"},

	{Name: "relational.node_us", Unit: "us", Better: "lower"},
	{Name: "timeseries.node_us", Unit: "us", Better: "lower"},
	{Name: "textstore.node_us", Unit: "us", Better: "lower"},
	{Name: "mlengine.node_us", Unit: "us", Better: "lower"},
	{Name: "migrate.node_us", Unit: "us", Better: "lower"},
	{Name: "relational.query_us", Unit: "us", Better: "lower"},
	{Name: "relational.parse_us", Unit: "us", Better: "lower"},
	{Name: "relational.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "adapter.overhead_us", Unit: "us", Better: "lower"},

	{Name: "partition.spawned", Unit: "count", Better: "lower"},
	{Name: "partition.inlined", Unit: "count", Better: "lower"},
	{Name: "partition.do_overhead_us", Unit: "us", Better: "lower"},

	{Name: "cast.row_box_us_per_10k", Unit: "us", Better: "lower"},
	{Name: "cast.binary_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cast.csv_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "migrate.wall_us_per_mb", Unit: "us/MB", Better: "lower"},
	{Name: "migrate.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "timeseries.window_us", Unit: "us", Better: "lower"},
	{Name: "timeseries.append_us", Unit: "us", Better: "lower"},

	{Name: "backend.durable_cost_us", Unit: "us", Better: "lower"},
	{Name: "backend.fsyncs_per_ack", Unit: "ratio", Better: "lower"},
	{Name: "backend.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "backend.snapshot_cycles", Unit: "count", Better: "lower"},
	{Name: "backend.snapshot_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "backend.replay_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "lru.cost_get_ns", Unit: "ns", Better: "lower"},
	{Name: "lru.cost_put_ns", Unit: "ns", Better: "lower"},
	{Name: "subplan.get_ns", Unit: "ns", Better: "lower"},

	// Simulated quantities: never added to host time.
	{Name: "hw.sim_latency_s_p50", Unit: "s", Better: "lower"},
	{Name: "hw.sim_energy_j_p50", Unit: "J", Better: "lower"},
	{Name: "hw.offload_ratio", Unit: "ratio", Better: "higher"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "go.mallocs_per_req", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "go.heap_inuse_mb_peak", Unit: "MB", Better: "lower"},
}

// metricValue is one emitted measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values one run emits, keyed by catalogue name.
type metricSet map[string]metricValue

// units maps every catalogued metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// put records value under name with the catalogue's unit.
func (m metricSet) put(name string, value float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric not in catalogue: " + name)
	}
	m[name] = metricValue{Value: value, Unit: unit}
}

// fill reports every catalogued metric of defs, so a layer a workload never
// enters reads 0 instead of going missing.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}
