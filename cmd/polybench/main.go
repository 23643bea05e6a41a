// Command polybench regenerates the reproduction experiments E1–E15 of
// DESIGN.md and prints their tables. With -loadgen it instead drives a
// running polyserve instance with N concurrent clients and reports serving
// throughput and latency percentiles — the serving-path benchmark.
//
// Usage:
//
//	polybench                  # run every experiment at scale 1
//	polybench -experiment E6   # one experiment
//	polybench -scale 4         # larger workloads
//
//	polybench -loadgen -url http://localhost:8080 -clients 16 -requests 800 \
//	  -body '{"frontend":"sql","engine":"db-clinical","statement":"SELECT count(*) AS n FROM patients"}'
//
//	# Streamed partial results: reads go to /query/stream and the report
//	# adds time-to-first-row next to full-result latency.
//	polybench -loadgen -stream \
//	  -body '{"frontend":"sql","statement":"SELECT * FROM patients"}'
//
//	# Near-identical query family: -similar N cycles N SQL variants that
//	# share a scan/filter/sort prefix and differ only in LIMIT — the subplan
//	# cache's target traffic. The report adds the subplan hit/reuse rates.
//	polybench -loadgen -similar 64 -clients 16 -requests 2000
//
//	# 95/5 mixed read/write: every 20th request writes a timeseries point.
//	# %d becomes a monotonic counter; with concurrent clients put it in the
//	# series name (one series per write) rather than the timestamp, since
//	# arrival order is not send order and timestamps must strictly increase
//	# within a series.
//	polybench -loadgen -write-every 20 \
//	  -body '{"frontend":"sql","engine":"db-clinical","statement":"SELECT count(*) AS n FROM patients"}' \
//	  -write-body '{"engine":"ts-vitals","series":"loadgen/s%d","ts":1,"value":70}'
//
//	# Multi-tenant fairness: -tenants N spreads the configured requests
//	# across N tenant identities (X-Tenant: t0..tN-1); -abuser adds a
//	# dedicated unpaced tenant hammering alongside them (kept out of the
//	# headline stats). The report adds a per-tenant table, and -fair-bound
//	# makes the run fail when the well-behaved tenants' p99 exceeds it —
//	# the isolation assertion CI runs against a quota-limited abuser.
//	polybench -loadgen -tenants 2 -abuser -fair-bound 2s
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"polystorepp/internal/experiments"
	"polystorepp/internal/tenant"
)

type bodyList []string

func (b *bodyList) String() string { return fmt.Sprintf("%d bodies", len(*b)) }
func (b *bodyList) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `polybench — Polystore++ reproduction experiments and serving load generator

Default mode runs the DESIGN.md experiment suite (E1..E15). With -loadgen it
drives a running polyserve over HTTP with concurrent clients and reports
throughput plus latency percentiles.

Usage:
  polybench [flags]

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	experiment := flag.String("experiment", "", "experiment id (E1..E15); empty runs all")
	scale := flag.Int("scale", 1, "workload scale factor")
	loadgen := flag.Bool("loadgen", false, "drive a running polyserve instead of running experiments")
	stream := flag.Bool("stream", false, "loadgen: POST /query/stream (NDJSON partial results) and report time-to-first-row alongside full-result latency")
	url := flag.String("url", "http://localhost:8080", "polyserve base URL (loadgen)")
	clients := flag.Int("clients", 8, "concurrent clients (loadgen)")
	requests := flag.Int("requests", 400, "total requests across all clients (loadgen)")
	writeEvery := flag.Int("write-every", 0, "loadgen: make every Nth request a POST /ingest write (0 disables; 20 = a 95/5 read/write mix)")
	similar := flag.Int("similar", 0, "loadgen: cycle N near-identical SQL variants (shared scan/filter/sort prefix, varying LIMIT) — the subplan cache's target traffic (0 disables)")
	tenants := flag.Int("tenants", 0, "loadgen: spread requests across N tenant identities via X-Tenant (0 = single anonymous tenant)")
	abuser := flag.Bool("abuser", false, "loadgen: add a dedicated 'abuser' tenant firing unpaced requests for the whole run (excluded from headline stats; give it a low -tenant-quota on the server)")
	fairBound := flag.Duration("fair-bound", 0, "loadgen: fail (exit 1) when the well-behaved tenants' served p99 exceeds this bound (0 disables)")
	class := flag.String("class", "", "loadgen: X-Priority class for reads (interactive, batch, background; empty sends none)")
	var bodies, writeBodies bodyList
	flag.Var(&bodies, "body", "POST /query JSON body (repeatable; clients cycle through them)")
	flag.Var(&writeBodies, "write-body", "POST /ingest JSON body for -write-every (repeatable; %d in the body is replaced by a monotonic counter — with concurrent clients put it in the series/key name, not a timestamp, since arrival order is not send order)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "polybench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *loadgen {
		if *similar > 0 {
			bodies = append(bodies, similarBodies(*similar)...)
		}
		opts := loadOpts{tenants: *tenants, abuser: *abuser, fairBound: *fairBound, class: *class}
		if err := runLoadgen(*url, *clients, *requests, bodies, *writeEvery, writeBodies, *stream, opts); err != nil {
			fmt.Fprintf(os.Stderr, "polybench: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "polybench: -scale must be >= 1")
		os.Exit(2)
	}
	if *experiment != "" {
		fn, ok := experiments.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "polybench: unknown experiment %q (want E1..E15)\n", *experiment)
			os.Exit(2)
		}
		tab, err := fn(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polybench: %s: %v\n", *experiment, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		return
	}
	tabs, err := experiments.All(*scale)
	for _, t := range tabs {
		fmt.Println(t)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
		os.Exit(1)
	}
}

// loadOpts are the multi-tenant knobs of the load generator.
type loadOpts struct {
	tenants   int           // spread reads across t0..t(N-1); 0 = anonymous
	abuser    bool          // add an unpaced "abuser" tenant for the whole run
	fairBound time.Duration // fail when well-behaved p99 exceeds this (0 off)
	class     string        // X-Priority header for reads ("" sends none)
}

// perTenant tracks (tenants > 0 or abuser) whether per-tenant accounting and
// the fairness report are active.
func (o loadOpts) perTenant() bool { return o.tenants > 0 || o.abuser }

// tenantAgg is one tenant's client-side view of the run.
type tenantAgg struct {
	requests  int
	latencies []time.Duration // served reads only
	status    map[int]int
	netErrs   int
}

// postJSON fires one POST with the tenant/class headers the resilience layer
// routes on.
func postJSON(hc *http.Client, url, body, ten, class string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set(tenant.Header, ten)
	}
	if class != "" {
		req.Header.Set(tenant.ClassHeader, class)
	}
	return hc.Do(req)
}

// runLoadgen fires `requests` calls from `clients` goroutines and prints
// throughput plus latency percentiles — the serving-path benchmark
// trajectory (wall-clock this time, not simulated). With writeEvery > 0,
// every Nth request becomes a POST /ingest write cycling through
// writeBodies: the mixed read/write mode that exercises the result cache's
// surgical (version-vector) invalidation.
// With stream set, reads go to /query/stream and the report adds
// time-to-first-row — the latency win partial-result delivery exists for:
// the first NDJSON line lands while the server is still producing the rest,
// so TTFR sits strictly below the full-result latency whenever the result
// spans more than one batch.
// With opts.tenants > 0 reads rotate X-Tenant across N identities and the
// report adds a per-tenant table; opts.abuser adds a tenant hammering
// unpaced beside them (its traffic never feeds the headline stats), and
// opts.fairBound turns the well-behaved tenants' p99 into a pass/fail
// isolation assertion.
func runLoadgen(baseURL string, clients, requests int, bodies []string, writeEvery int, writeBodies []string, stream bool, opts loadOpts) error {
	if clients < 1 || requests < 1 {
		return fmt.Errorf("-clients and -requests must be >= 1")
	}
	if len(bodies) == 0 {
		bodies = []string{`{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`}
	}
	if writeEvery > 0 && len(writeBodies) == 0 {
		return fmt.Errorf("-write-every needs at least one -write-body")
	}
	// Fail fast if the server is not up (or the URL points at something
	// that is not a polyserve).
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(baseURL + "/healthz")
	if err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz returned %d, want 200", baseURL, resp.StatusCode)
	}

	var (
		mu         sync.Mutex
		latencies  []time.Duration
		ttfrs      []time.Duration // -stream: time to first NDJSON line
		incomplete int             // -stream: streams missing the terminal record
		inbandErrs int             // -stream: streams ending in the in-band error record
		status     = map[int]int{}
		netErrs    int
		reads      int
		writes     int
		writeSeq   int64
		writeCount int
		aggs       = map[string]*tenantAgg{}
	)
	// agg returns (building on first use) one tenant's accounting row; the
	// caller must hold mu.
	agg := func(id string) *tenantAgg {
		a, ok := aggs[id]
		if !ok {
			a = &tenantAgg{status: map[int]int{}}
			aggs[id] = a
		}
		return a
	}
	type call struct {
		path string
		body string
		ten  string
	}
	tenantOf := func(i int) string {
		if opts.tenants > 0 {
			return fmt.Sprintf("t%d", i%opts.tenants)
		}
		return ""
	}
	work := make(chan call, requests)
	for i := 0; i < requests; i++ {
		if writeEvery > 0 && (i+1)%writeEvery == 0 {
			body := writeBodies[writeCount%len(writeBodies)]
			writeCount++
			// Replace only the literal %d token: the body is user JSON, not
			// a format string (a stray "%" must survive untouched).
			if strings.Contains(body, "%d") {
				writeSeq++
				body = strings.Replace(body, "%d", strconv.FormatInt(writeSeq, 10), 1)
			}
			work <- call{path: "/ingest", body: body, ten: tenantOf(i)}
			continue
		}
		work <- call{path: "/query", body: bodies[i%len(bodies)], ten: tenantOf(i)}
	}
	close(work)

	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range work {
				tenantID := w.ten
				if tenantID == "" {
					tenantID = "anon"
				}
				if stream && w.path == "/query" {
					ttfr, total, code, ok, failed, err := streamOnce(hc, baseURL, w.body, w.ten, opts.class)
					mu.Lock()
					reads++
					if opts.perTenant() {
						a := agg(tenantID)
						a.requests++
						switch {
						case err != nil:
							a.netErrs++
						default:
							a.status[code]++
							if code >= 200 && code < 300 && ok && !failed {
								a.latencies = append(a.latencies, total)
							}
						}
					}
					switch {
					case err != nil:
						netErrs++
					case failed:
						// In-band terminal error: the query failed after the
						// 200 status line. Count it like a non-2xx — not a
						// served read, not a latency sample.
						inbandErrs++
						status[code]++
					case code >= 200 && code < 300 && !ok:
						// Cut off mid-flight (no terminal record): not a
						// served read, and its partial-prefix timing would
						// flatter the stats exactly when the server fails.
						incomplete++
						status[code]++
					default:
						status[code]++
						if code >= 200 && code < 300 {
							latencies = append(latencies, total)
							ttfrs = append(ttfrs, ttfr)
						}
					}
					mu.Unlock()
					continue
				}
				rt0 := time.Now()
				resp, err := postJSON(hc, baseURL+w.path, w.body, w.ten, opts.class)
				lat := time.Since(rt0)
				mu.Lock()
				if w.path == "/ingest" {
					writes++
				} else {
					reads++
				}
				if opts.perTenant() && w.path == "/query" {
					a := agg(tenantID)
					a.requests++
					if err != nil {
						a.netErrs++
					} else {
						a.status[resp.StatusCode]++
						if resp.StatusCode >= 200 && resp.StatusCode < 300 {
							a.latencies = append(a.latencies, lat)
						}
					}
				}
				if err != nil {
					netErrs++
				} else {
					status[resp.StatusCode]++
					// Only served reads feed the latency/throughput stats: a
					// near-instant 429 or 504 measures rejection speed, not
					// serving latency, and writes measure a different path.
					if w.path == "/query" && resp.StatusCode >= 200 && resp.StatusCode < 300 {
						latencies = append(latencies, lat)
					}
				}
				mu.Unlock()
				if resp != nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
			}
		}()
	}
	// The abuser tenant fires unpaced from dedicated goroutines for as long
	// as the configured run lasts — extra traffic beyond -requests, so it is
	// accounted per-tenant but kept out of the headline served/latency
	// numbers. The interesting outcome is server-side: with a low
	// -tenant-quota for "abuser" its row fills with 429s while the
	// well-behaved tenants' percentiles stay flat.
	stopAbuse := make(chan struct{})
	var awg sync.WaitGroup
	if opts.abuser {
		abuseBody := bodies[0]
		for c := 0; c < 4; c++ {
			awg.Add(1)
			go func() {
				defer awg.Done()
				for {
					select {
					case <-stopAbuse:
						return
					default:
					}
					rt0 := time.Now()
					resp, err := postJSON(hc, baseURL+"/query", abuseBody, "abuser", opts.class)
					lat := time.Since(rt0)
					mu.Lock()
					a := agg("abuser")
					a.requests++
					if err != nil {
						a.netErrs++
					} else {
						a.status[resp.StatusCode]++
						if resp.StatusCode >= 200 && resp.StatusCode < 300 {
							a.latencies = append(a.latencies, lat)
						}
					}
					mu.Unlock()
					if resp != nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						_ = resp.Body.Close()
					}
				}
			}()
		}
	}
	wg.Wait()
	close(stopAbuse)
	awg.Wait()
	elapsed := time.Since(t0)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) time.Duration { return pctOf(latencies, q) }
	fmt.Printf("loadgen: %d requests, %d clients, %d distinct bodies\n", requests, clients, len(bodies))
	if writes > 0 {
		fmt.Printf("  mix         %d reads / %d writes (every %d)\n", reads, writes, writeEvery)
	}
	fmt.Printf("  elapsed     %s\n", elapsed.Round(time.Millisecond))
	// Throughput counts served reads only: near-instant 429/504 rejections
	// (and writes, which measure a different path) would flatter the
	// headline number exactly when the server is drowning.
	fmt.Printf("  served      %d of %d reads (throughput %.1f req/s)\n",
		len(latencies), reads, float64(len(latencies))/elapsed.Seconds())
	fmt.Printf("  latency     p50=%s p95=%s p99=%s max=%s (served only%s)\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond),
		map[bool]string{true: "; full streamed result", false: ""}[stream])
	if stream {
		sort.Slice(ttfrs, func(i, j int) bool { return ttfrs[i] < ttfrs[j] })
		tpct := func(q float64) time.Duration { return pctOf(ttfrs, q) }
		fmt.Printf("  first-row   p50=%s p95=%s p99=%s max=%s (time to first NDJSON line)\n",
			tpct(0.50).Round(time.Microsecond), tpct(0.95).Round(time.Microsecond),
			tpct(0.99).Round(time.Microsecond), tpct(1.0).Round(time.Microsecond))
		if p50, f50 := tpct(0.50), pct(0.50); p50 > 0 && f50 > 0 {
			fmt.Printf("  ttfr/full   p50 %.2fx (first row arrives at %.0f%% of full-result latency)\n",
				float64(f50)/float64(p50), 100*float64(p50)/float64(f50))
		}
		if inbandErrs > 0 {
			fmt.Printf("  failed      %d streams ended in the in-band error record (excluded from served/latency)\n", inbandErrs)
		}
		if incomplete > 0 {
			fmt.Printf("  incomplete  %d streams ended without a summary/error record\n", incomplete)
		}
	}
	keys := make([]int, 0, len(status))
	for k := range status {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("  status %d  %d\n", k, status[k])
	}
	if netErrs > 0 {
		fmt.Printf("  network errors %d\n", netErrs)
	}
	if opts.perTenant() {
		ids := make([]string, 0, len(aggs))
		for id := range aggs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Printf("  tenants:\n")
		for _, id := range ids {
			a := aggs[id]
			sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
			fmt.Printf("    %-10s %6d reqs, %6d served, %5d rate-limited(429), %5d 503, p50=%s p99=%s\n",
				id, a.requests, len(a.latencies), a.status[429], a.status[503],
				pctOf(a.latencies, 0.50).Round(time.Microsecond),
				pctOf(a.latencies, 0.99).Round(time.Microsecond))
		}
	}
	printServerStats(hc, baseURL)
	if opts.fairBound > 0 {
		// The isolation assertion: pool every non-abuser tenant's served
		// reads and require their p99 under the bound — the abuser may be
		// drowning in 429s, but it must not drag the others' tail with it.
		var well []time.Duration
		for id, a := range aggs {
			if id != "abuser" {
				well = append(well, a.latencies...)
			}
		}
		sort.Slice(well, func(i, j int) bool { return well[i] < well[j] })
		p99 := pctOf(well, 0.99)
		if len(well) == 0 {
			return fmt.Errorf("fairness: no served well-behaved reads to measure")
		}
		if p99 > opts.fairBound {
			return fmt.Errorf("fairness: well-behaved p99 %s exceeds -fair-bound %s",
				p99.Round(time.Microsecond), opts.fairBound)
		}
		fmt.Printf("  fairness    well-behaved p99 %s within bound %s (%d served reads)\n",
			p99.Round(time.Microsecond), opts.fairBound, len(well))
	}
	return nil
}

// similarBodies builds the -similar query family: n SQL variants sharing
// one scan/filter/sort prefix subtree and differing only in LIMIT. Each
// variant compiles to a distinct plan (plan and result caches can't help
// across them), but the shared prefix is one subplan-cache entry — this is
// the traffic shape the subplan cache exists for.
func similarBodies(n int) []string {
	out := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, fmt.Sprintf(
			`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 30 ORDER BY age DESC LIMIT %d"}`, i))
	}
	return out
}

// pctOf reads the q-quantile of an ascending-sorted duration slice (0 when
// empty).
func pctOf(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// streamOnce fires one POST /query/stream and drains the NDJSON response,
// returning time-to-first-row (first response line), total latency, the
// HTTP status, whether the stream carried a terminal record (a stream
// without one was cut off mid-flight), and whether that terminal record
// was the in-band error — a query that FAILED after the 200 status line,
// which must not count as a served read.
func streamOnce(hc *http.Client, baseURL, body, ten, class string) (ttfr, total time.Duration, code int, complete, failed bool, err error) {
	t0 := time.Now()
	resp, err := postJSON(hc, baseURL+"/query/stream", body, ten, class)
	if err != nil {
		return 0, 0, 0, false, false, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 && ttfr == 0 {
			ttfr = time.Since(t0)
		}
		switch {
		case bytes.Contains(line, []byte(`"type":"summary"`)):
			complete = true
		case bytes.Contains(line, []byte(`"type":"error"`)):
			complete = true
			failed = true
		}
		if rerr != nil {
			break
		}
	}
	return ttfr, time.Since(t0), resp.StatusCode, complete, failed, nil
}

// printServerStats fetches /stats after the run and reports how the serving
// accelerations (plan cache, result cache, single-flight) absorbed the load.
// Best effort: an unreadable /stats only skips the section.
func printServerStats(hc *http.Client, baseURL string) {
	resp, err := hc.Get(baseURL + "/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var stats struct {
		PlanCacheHits      int64              `json:"plan_cache_hits"`
		PlanCacheMiss      int64              `json:"plan_cache_miss"`
		ResultCacheHits    int64              `json:"result_cache_hits"`
		ResultCacheMiss    int64              `json:"result_cache_miss"`
		SingleFlightShared int64              `json:"single_flight_shared"`
		SubplanEnabled     bool               `json:"subplan_cache_enabled"`
		SubplanHits        int64              `json:"subplan_cache_hits"`
		SubplanMiss        int64              `json:"subplan_cache_miss"`
		SubplanPublished   int64              `json:"subplan_cache_published"`
		SubplanBytesServed int64              `json:"subplan_bytes_served"`
		SubplanPlansProbed int64              `json:"subplan_plans_probed"`
		SubplanPlansReused int64              `json:"subplan_plans_reused"`
		DataVersion        uint64             `json:"data_version"`
		ExecConcurrent     int64              `json:"executor_concurrent_plans"`
		ExecSequential     int64              `json:"executor_sequential_plans"`
		ExecMaxParallel    float64            `json:"executor_max_parallel"`
		RequestLatencyUS   map[string]float64 `json:"request_latency_us"`
		StreamTTFRUS       map[string]float64 `json:"stream_ttfr_us"`
		TenantCount        int64              `json:"tenant_count"`
		TenantRatelimited  int64              `json:"tenant_ratelimited"`
		ShedStream         int64              `json:"tenant_shed_stream"`
		ShedCold           int64              `json:"tenant_shed_cold"`
		ShedDeadline       int64              `json:"tenant_shed_deadline"`
		BreakerRejects     int64              `json:"breaker_rejects"`
		Backend            struct {
			Kind           string `json:"kind"`
			Durable        bool   `json:"durable"`
			SyncPolicy     string `json:"sync_policy"`
			WALAppends     uint64 `json:"wal_appends"`
			WALBytes       int64  `json:"wal_bytes"`
			WALFsyncs      uint64 `json:"wal_fsyncs"`
			ReplayRecords  uint64 `json:"replay_records"`
			SnapshotWrites uint64 `json:"snapshot_writes"`
		} `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return
	}
	fmt.Printf("  server      plan cache %d/%d hit, result cache %d/%d hit, single-flight shared %d\n",
		stats.PlanCacheHits, stats.PlanCacheHits+stats.PlanCacheMiss,
		stats.ResultCacheHits, stats.ResultCacheHits+stats.ResultCacheMiss,
		stats.SingleFlightShared)
	if stats.SubplanEnabled {
		hitRate := 0.0
		if probed := stats.SubplanPlansProbed; probed > 0 {
			hitRate = float64(stats.SubplanPlansReused) / float64(probed)
		}
		fmt.Printf("  subplan     %d/%d subtree probes hit, plan reuse rate %.2f (%d/%d), %d entries published, %s served\n",
			stats.SubplanHits, stats.SubplanHits+stats.SubplanMiss,
			hitRate, stats.SubplanPlansReused, stats.SubplanPlansProbed,
			stats.SubplanPublished, fmtBytes(stats.SubplanBytesServed))
	}
	fmt.Printf("  executor    %d concurrent / %d sequential plans, max node parallelism %.0f, data version %d\n",
		stats.ExecConcurrent, stats.ExecSequential, stats.ExecMaxParallel, stats.DataVersion)
	if shed := stats.ShedStream + stats.ShedCold + stats.ShedDeadline; stats.TenantRatelimited+shed+stats.BreakerRejects > 0 || stats.TenantCount > 1 {
		fmt.Printf("  resilience  %d tenants, %d rate-limited, %d shed (stream %d / cold %d / deadline %d), %d breaker rejects\n",
			stats.TenantCount, stats.TenantRatelimited, shed,
			stats.ShedStream, stats.ShedCold, stats.ShedDeadline, stats.BreakerRejects)
	}
	if stats.Backend.Durable {
		fmt.Printf("  durability  %s sync=%s, %d WAL appends (%s, %d fsyncs), %d replayed at boot, %d snapshots\n",
			stats.Backend.Kind, stats.Backend.SyncPolicy,
			stats.Backend.WALAppends, fmtBytes(stats.Backend.WALBytes), stats.Backend.WALFsyncs,
			stats.Backend.ReplayRecords, stats.Backend.SnapshotWrites)
	}
	printQuantiles("latency", stats.RequestLatencyUS)
	printQuantiles("ttfr", stats.StreamTTFRUS)
}

// fmtBytes renders a byte count in the largest whole unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// printQuantiles reports one server-side latency histogram (microsecond
// bucket upper bounds) when it observed anything during the run.
func printQuantiles(label string, q map[string]float64) {
	if q == nil || q["count"] == 0 {
		return
	}
	fmt.Printf("  server %-8s p50<=%s p95<=%s p99<=%s (n=%.0f, bucket bounds)\n",
		label,
		time.Duration(q["p50"]*1e3).Round(time.Microsecond),
		time.Duration(q["p95"]*1e3).Round(time.Microsecond),
		time.Duration(q["p99"]*1e3).Round(time.Microsecond),
		q["count"])
}
