package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	window  time.Duration
	trace   int // 0: end-to-end metrics only, 1: per-layer only, -1: both
	clients int
	scale   scale
	outDir  string
	// warmupScale shrinks the warm-up request counts (the self-test runs a
	// fraction of them on its small dataset).
	warmupScale float64
	// corrupt makes the oracle expect a wrong digest for one key and the
	// durability check expect a write that was never sent — the forced
	// failures that prove both checks can fail.
	corrupt bool
}

// setups is how many times a run boots and warms a deployment; setup_s is
// the median. The last one is the deployment the window runs against.
const setups = 5

// runResult is one workload run's outcome.
type runResult struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	E2E       metricSet
	Layer     metricSet
	Header    header
	Warnings  []string
	Trace     string // path of the span file the layer pass wrote, if it ran
}

// header stamps a run: what produced the numbers and how many samples stand
// behind each percentile.
type header struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	Commit        string    `json:"commit"`
	GoVersion     string    `json:"go_version"`
	NumCPU        int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Clients       int       `json:"clients"`
	Loop          string    `json:"loop"`
	WarmupReqs    int       `json:"warmup_requests"`
	WindowSeconds float64   `json:"window_seconds"`
	Slices        int       `json:"slices"`
	SetupTimes    []float64 `json:"setup_times_s"`
	Samples       counts    `json:"samples"`
	OracleKeys    int       `json:"oracle_keys"`
	OracleChecked int64     `json:"oracle_checked_responses"`
	DurableWrites int       `json:"durability_checked_writes"`
	LayerRequests int       `json:"layer_pass_requests"`
	FirstError    string    `json:"first_error,omitempty"`
}

// serverStats is the part of GET /stats the harness reads.
type serverStats struct {
	ResultHits         int64 `json:"result_cache_hits"`
	ResultMiss         int64 `json:"result_cache_miss"`
	PlanHits           int64 `json:"plan_cache_hits"`
	PlanMiss           int64 `json:"plan_cache_miss"`
	SingleFlightShared int64 `json:"single_flight_shared"`
	Rejected           int64 `json:"rejected"`
	StreamRows         int64 `json:"stream_rows"`
	SubplanProbed      int64 `json:"subplan_plans_probed"`
	SubplanReused      int64 `json:"subplan_plans_reused"`
	SubplanBytesServed int64 `json:"subplan_bytes_served"`
	PartitionSpawned   int64 `json:"partition_spawned"`
	PartitionInlined   int64 `json:"partition_inlined"`
	Backend            struct {
		WALBytes       int64 `json:"wal_bytes"`
		WALFsyncs      int64 `json:"wal_fsyncs"`
		SnapshotWrites int64 `json:"snapshot_writes"`
	} `json:"backend"`
}

func fetchStats(url string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(body, &st)
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runWorkload measures one workload: oracle, set-up (several times), window,
// guards, durability check, and — when asked — the layer pass.
func runWorkload(cfg runConfig, name string) (*runResult, error) {
	w, err := newWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	w.warmup = int(float64(w.warmup) * cfg.warmupScale)
	or, err := newOracle(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		for k := range or.digests {
			or.digests[k] ^= 1
			break
		}
	}
	res := &runResult{Workload: name, E2E: metricSet{}, Layer: metricSet{}}
	res.Header = header{
		Workload: name, Seed: cfg.seed, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.clients,
		Loop: "closed", WarmupReqs: w.warmup, WindowSeconds: cfg.window.Seconds(),
		Slices: slices, OracleKeys: len(or.digests),
	}

	// Set-up: boot and warm a deployment; with end-to-end metrics wanted, do
	// it several times and report the median, keeping the last one.
	n := 1
	if cfg.trace != 1 {
		n = setups
	}
	var (
		d     *deployment
		chk   *checker
		next  atomic.Int64
		times []float64
	)
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = boot(cfg.seed, cfg.scale, cfg.outDir); err != nil {
			return nil, err
		}
		chk = newChecker(w, or, newWriteState(cfg.clients, cfg.scale), d.url, cfg.clients)
		next.Store(0)
		chk.drive(cfg.clients, &next, t0, func(pos int64) bool { return pos >= int64(w.warmup) })
		next.Store(int64(w.warmup)) // each client overshot by one claim
		times = append(times, time.Since(t0).Seconds())
	}
	defer func() { d.close() }()
	res.Header.SetupTimes = times
	res.E2E.put("setup_s", median(times))

	before, err := fetchStats(d.url)
	if err != nil {
		return nil, err
	}
	acks0, bytes0 := chk.ws.ackedTotals()
	win := chk.measure(cfg.clients, &next, cfg.window)
	acks, userBytes := chk.ws.ackedTotals()
	after, err := fetchStats(d.url)
	if err != nil {
		return nil, err
	}
	res.Header.Samples = win.summarize(res.E2E, res.Layer)
	countLayers(res.Layer, before, after, acks-acks0, userBytes-bytes0)

	// Guards: does the workload still stress what it is named for?
	gi := guardInput{
		resultHitRatio: res.Layer["server.result_cache_hit_ratio"].Value,
		subplanReuse:   res.Layer["core.subplan_reuse_ratio"].Value,
		migrationsMin:  int(chk.migrationsMin.Load()),
		rowMismatches:  int(chk.rowMismatches.Load()),
	}
	violations := 0
	for _, g := range w.guards {
		if !g.ok(gi) {
			violations++
			res.Warnings = append(res.Warnings, fmt.Sprintf("guard failed on %s: %s (result hit ratio %.3f, subplan reuse %.3f, min migrations %d)",
				name, g.what, gi.resultHitRatio, gi.subplanReuse, gi.migrationsMin))
		}
	}
	res.Layer.put("client.guard_violations", float64(violations))

	durable := true
	if w.writeEvery > 0 {
		var rep durabilityReport
		rep, err = checkDurability(d, chk.ws, cfg)
		if err != nil {
			durable = false
			res.Warnings = append(res.Warnings, "durability check failed: "+err.Error())
		}
		res.Header.DurableWrites = rep.writes
		res.Layer.put("backend.replay_records_per_s", rep.recordsPerS)
	}

	if cfg.trace != 0 {
		lp, err := layerPass(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		lp.report(res.Layer, res.Layer["client.lat_p50_ms"].Value)
		res.Header.LayerRequests = lp.requests
		res.Warnings = append(res.Warnings, lp.warnings...)
		res.Trace = filepath.Join(cfg.outDir, "trace-"+name+".jsonl")
		if err := lp.writeTrace(res.Trace); err != nil {
			return nil, err
		}
	}

	res.Attempted = chk.attempted.Load()
	res.Failed = chk.failed.Load()
	res.Header.OracleChecked = chk.checked.Load()
	res.Header.FirstError = chk.firstErr
	res.Layer.put("client.fail_ratio", ratio(res.Failed, res.Attempted))
	if res.Header.OracleChecked == 0 {
		res.Warnings = append(res.Warnings, "oracle compared no response: the window never reached a sampled key")
	}
	res.Correct = res.Failed == 0 && durable && res.Header.OracleChecked > 0
	res.Layer.fill(perLayer)
	return res, nil
}

// countLayers derives the count metrics from the /stats delta around the
// measured window.
func countLayers(m metricSet, a, b serverStats, acks, userBytes int64) {
	hits, miss := b.ResultHits-a.ResultHits, b.ResultMiss-a.ResultMiss
	m.put("server.result_cache_hit_ratio", ratio(hits, hits+miss))
	phits, pmiss := b.PlanHits-a.PlanHits, b.PlanMiss-a.PlanMiss
	m.put("server.plan_cache_hit_ratio", ratio(phits, phits+pmiss))
	m.put("server.single_flight_shared", float64(b.SingleFlightShared-a.SingleFlightShared))
	m.put("server.rejected", float64(b.Rejected-a.Rejected))
	m.put("server.stream_rows", float64(b.StreamRows-a.StreamRows))
	m.put("core.subplan_reuse_ratio", ratio(b.SubplanReused-a.SubplanReused, b.SubplanProbed-a.SubplanProbed))
	m.put("core.subplan_bytes_served", float64(b.SubplanBytesServed-a.SubplanBytesServed))
	m.put("partition.spawned", float64(b.PartitionSpawned-a.PartitionSpawned))
	m.put("partition.inlined", float64(b.PartitionInlined-a.PartitionInlined))
	m.put("backend.fsyncs_per_ack", ratio(b.Backend.WALFsyncs-a.Backend.WALFsyncs, acks))
	m.put("backend.snapshot_cycles", float64(b.Backend.SnapshotWrites-a.Backend.SnapshotWrites))
	// A user byte is a byte of acknowledged /ingest request body.
	m.put("backend.wal_bytes_per_user_byte", ratio(b.Backend.WALBytes-a.Backend.WALBytes, userBytes))
}

// sortedNames returns a metric set's names in order.
func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
