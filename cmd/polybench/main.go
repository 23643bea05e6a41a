// Command polybench regenerates the reproduction experiments E1–E15 (the
// paper's figures and claims) and prints their tables. With -loadgen it
// instead drives a running polyserve instance with N concurrent clients and
// reports served throughput, latency percentiles and, across tenants,
// whether a well-behaved tenant's tail stays bounded beside an abuser — the
// multi-tenant fairness smoke CI runs. Streamed, mixed-write and
// similar-family traffic is `go run ./bench -workload <name>`.
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
//	# Multi-tenant fairness: -tenants N spreads the configured requests
//	# across N tenant identities (X-Tenant: t0..tN-1); -abuser adds a
//	# dedicated unpaced tenant hammering alongside them (kept out of the
//	# headline stats). The report adds a per-tenant table, and -fair-bound
//	# makes the run fail when the well-behaved tenants' p99 exceeds it —
//	# the isolation assertion CI runs against a quota-limited abuser.
//	polybench -loadgen -tenants 2 -abuser -fair-bound 2s
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
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
	fmt.Fprintf(flag.CommandLine.Output(), `polybench — Polystore++ reproduction experiments and tenant-fairness load generator

Default mode runs the experiment suite (E1..E15, the paper's figures and
claims). With -loadgen it drives a running polyserve over HTTP with concurrent
clients and reports throughput, latency percentiles and per-tenant fairness.

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
	url := flag.String("url", "http://localhost:8080", "polyserve base URL (loadgen)")
	clients := flag.Int("clients", 8, "concurrent clients (loadgen)")
	requests := flag.Int("requests", 400, "total requests across all clients (loadgen)")
	tenants := flag.Int("tenants", 0, "loadgen: spread requests across N tenant identities via X-Tenant (0 = single anonymous tenant)")
	abuser := flag.Bool("abuser", false, "loadgen: add a dedicated 'abuser' tenant firing unpaced requests for the whole run (excluded from headline stats; give it a low -tenant-quota on the server)")
	fairBound := flag.Duration("fair-bound", 0, "loadgen: fail (exit 1) when the well-behaved tenants' served p99 exceeds this bound (0 disables)")
	var bodies bodyList
	flag.Var(&bodies, "body", "POST /query JSON body (repeatable; clients cycle through them; default one SELECT count(*) over patients)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "polybench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *loadgen {
		opts := loadOpts{tenants: *tenants, abuser: *abuser, fairBound: *fairBound}
		if err := runLoadgen(*url, *clients, *requests, bodies, opts); err != nil {
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
		fmt.Println(fn(*scale))
		return
	}
	for _, t := range experiments.All(*scale) {
		fmt.Println(t)
	}
}

// loadOpts are the multi-tenant knobs of the load generator.
type loadOpts struct {
	tenants   int           // spread reads across t0..t(N-1); 0 = anonymous
	abuser    bool          // add an unpaced "abuser" tenant for the whole run
	fairBound time.Duration // fail when well-behaved p99 exceeds this (0 off)
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

// record adds one request's outcome to the tenant's row.
func (a *tenantAgg) record(code int, err error, lat time.Duration) {
	a.requests++
	if err != nil {
		a.netErrs++
		return
	}
	a.status[code]++
	if code >= 200 && code < 300 {
		a.latencies = append(a.latencies, lat)
	}
}

// postQuery fires one POST /query, with the tenant header the resilience
// layer routes on, drains the body and returns the status and latency.
func postQuery(hc *http.Client, baseURL, body, ten string) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, baseURL+"/query", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set(tenant.Header, ten)
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, lat, nil
}

// runLoadgen fires `requests` reads from `clients` goroutines and prints
// throughput plus latency percentiles (wall clock, not simulated).
// With opts.tenants > 0 reads rotate X-Tenant across N identities and the
// report adds a per-tenant table; opts.abuser adds a tenant hammering
// unpaced beside them (its traffic never feeds the headline stats), and
// opts.fairBound turns the well-behaved tenants' p99 into a pass/fail
// isolation assertion.
func runLoadgen(baseURL string, clients, requests int, bodies []string, opts loadOpts) error {
	if clients < 1 || requests < 1 {
		return fmt.Errorf("-clients and -requests must be >= 1")
	}
	if len(bodies) == 0 {
		bodies = []string{`{"frontend":"sql","statement":"SELECT count(*) AS n FROM patients"}`}
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
		mu        sync.Mutex
		latencies []time.Duration
		status    = map[int]int{}
		netErrs   int
		aggs      = map[string]*tenantAgg{}
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
		body string
		ten  string
	}
	work := make(chan call, requests)
	for i := 0; i < requests; i++ {
		ten := ""
		if opts.tenants > 0 {
			ten = fmt.Sprintf("t%d", i%opts.tenants)
		}
		work <- call{body: bodies[i%len(bodies)], ten: ten}
	}
	close(work)

	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range work {
				code, lat, err := postQuery(hc, baseURL, w.body, w.ten)
				mu.Lock()
				if opts.perTenant() {
					id := w.ten
					if id == "" {
						id = "anon"
					}
					agg(id).record(code, err, lat)
				}
				if err != nil {
					netErrs++
				} else {
					status[code]++
					// Only served reads feed the latency/throughput stats: a
					// near-instant 429 or 504 measures rejection speed, not
					// serving latency.
					if code >= 200 && code < 300 {
						latencies = append(latencies, lat)
					}
				}
				mu.Unlock()
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
					code, lat, err := postQuery(hc, baseURL, bodies[0], "abuser")
					mu.Lock()
					agg("abuser").record(code, err, lat)
					mu.Unlock()
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
	fmt.Printf("  elapsed     %s\n", elapsed.Round(time.Millisecond))
	// Throughput counts served reads only: near-instant 429/504 rejections
	// would flatter the headline number exactly when the server is drowning.
	fmt.Printf("  served      %d of %d reads (throughput %.1f req/s)\n",
		len(latencies), requests, float64(len(latencies))/elapsed.Seconds())
	fmt.Printf("  latency     p50=%s p95=%s p99=%s max=%s (served only)\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
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

// pctOf reads the q-quantile of an ascending-sorted duration slice (0 when
// empty).
func pctOf(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
