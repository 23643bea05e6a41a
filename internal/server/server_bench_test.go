package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
)

// BenchmarkServeConcurrent is the serving-path benchmark: N concurrent
// clients fire the same hot SQL query at one System and the benchmark
// reports throughput (req/s) and tail latency (p50/p99 in microseconds).
// Because the query repeats over unchanging data, steady state is answered
// by the root probe from the subplan cache (single-flight merges the
// warmup); the NoDedup variant below measures the raw execute path.
func BenchmarkServeConcurrent(b *testing.B) {
	benchServe(b, polystore.ServeConfig{
		Workers:          16,
		QueueDepth:       256,
		DefaultSQLEngine: "db-clinical",
	})
}

// BenchmarkServeConcurrentNoDedup disables single-flight and the subplan
// cache, so every request compiles (through the plan cache) and executes —
// the pre-dedup serving trajectory, kept for comparison.
func BenchmarkServeConcurrentNoDedup(b *testing.B) {
	benchServe(b, polystore.ServeConfig{
		Workers:          16,
		QueueDepth:       256,
		DefaultSQLEngine: "db-clinical",
	}, executeAll, subplanBytes(-1))
}

// BenchmarkServeConcurrentTraced runs the no-dedup workload with TraceAll
// on, so every request builds a full span tree and lands in the trace log —
// the upper bound on tracing cost. Compare against
// BenchmarkServeConcurrentNoDedup for the overhead.
func BenchmarkServeConcurrentTraced(b *testing.B) {
	benchServe(b, polystore.ServeConfig{
		Workers:          16,
		QueueDepth:       256,
		DefaultSQLEngine: "db-clinical",
		TraceAll:         true,
	}, executeAll, subplanBytes(-1))
}

// BenchmarkMixedReadWrite is the mixed-workload benchmark: 95% hot reads of
// a relational query, 5% writes appended to a timeseries store the read plan
// never touches. With version-vector cache keys the writes leave the cached
// plan addressable, so steady state answers reads from the root probe; the
// reported hit-rate metric (plans reusing the subplan cache over plans
// probing it) is the regression canary for surgical invalidation (a
// fallback to global data-version keys drags it to ~0).
func BenchmarkMixedReadWrite(b *testing.B) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 200)
	if err != nil {
		b.Fatal(err)
	}
	sys := polystore.New(
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	)
	srv := sys.Handler(polystore.ServeConfig{
		Workers:          16,
		QueueDepth:       256,
		DefaultSQLEngine: "db-clinical",
	}).(*server.Server)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	readBody := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10"}`
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	var ops, writeTS atomic.Int64

	b.ResetTimer()
	t0 := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ops.Add(1)
			var body, path string
			if n%20 == 0 { // 5% writes, to a store the read never touches
				path = "/ingest"
				// One series per write: concurrent writers would otherwise
				// race the store's strictly-increasing-timestamp rule.
				body = fmt.Sprintf(`{"engine":"ts-vitals","series":"bench/hr/%d","ts":1,"value":70}`,
					writeTS.Add(1))
			} else {
				path = "/query"
				body = readBody
			}
			resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("%s status %d", path, resp.StatusCode)
				return
			}
		}
	})
	elapsed := time.Since(t0)
	b.StopTimer()

	b.ReportMetric(float64(ops.Load())/elapsed.Seconds(), "req/s")
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Probed float64 `json:"subplan_plans_probed"`
		Reused float64 `json:"subplan_plans_reused"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	if st.Probed > 0 {
		b.ReportMetric(st.Reused/st.Probed, "hit-rate")
	}
}

// BenchmarkServeSimilar is the near-identical-query benchmark the subplan
// cache targets: concurrent clients cycle through 64 LIMIT variants of one
// SQL statement, so every request has a distinct plan-cache key but shares
// the scan→filter→sort prefix. Single-flight is disabled, leaving the
// subplan cache (default-on) as the only reuse layer: a variant's first run
// replays the prefix, its repeats are answered whole by the root probe. The
// benchmark reports throughput and the subtree reuse rate read back from
// /stats.
func BenchmarkServeSimilar(b *testing.B) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 200)
	if err != nil {
		b.Fatal(err)
	}
	sys := polystore.New(
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	)
	ts := httptest.NewServer(server.WithoutSingleFlight(sys.Handler(polystore.ServeConfig{
		Workers:          16,
		QueueDepth:       256,
		DefaultSQLEngine: "db-clinical",
	})))
	defer ts.Close()

	bodies := make([]string, 64)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 30 ORDER BY age DESC LIMIT %d"}`, i+1)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	var ops atomic.Int64

	b.ResetTimer()
	t0 := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[ops.Add(1)%int64(len(bodies))]
			resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	elapsed := time.Since(t0)
	b.StopTimer()

	b.ReportMetric(float64(ops.Load())/elapsed.Seconds(), "req/s")
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Probed float64 `json:"subplan_plans_probed"`
		Reused float64 `json:"subplan_plans_reused"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		b.Fatal(err)
	}
	if stats.Probed > 0 {
		b.ReportMetric(stats.Reused/stats.Probed, "reuse-rate")
	}
}

// BenchmarkServeStream measures the partial-result path: concurrent clients
// stream a 10k-row scan over POST /query/stream and the benchmark reports
// throughput (req/s), time-to-first-row, full-result latency and row
// throughput. Single-flight and the subplan cache are disabled so every
// request exercises the live streaming executor rather than a cached
// replay.
func BenchmarkServeStream(b *testing.B) {
	store := relational.NewStore("db-bench")
	events, err := store.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	))
	if err != nil {
		b.Fatal(err)
	}
	batch := cast.NewBatch(events.Schema(), 10000)
	for i := 0; i < 10000; i++ {
		if err := batch.AppendRow(int64(i), int64(i%7), float64(i)*0.5); err != nil {
			b.Fatal(err)
		}
	}
	if err := events.InsertBatch(batch); err != nil {
		b.Fatal(err)
	}
	ts := serveTest(b, polystore.ServeConfig{
		Workers: 16, QueueDepth: 256,
		DefaultSQLEngine: "db-bench",
		MaxRows:          20000,
	}, []testOpt{executeAll, subplanBytes(-1)}, polystore.WithRelational("db-bench", store))

	body := `{"frontend":"sql","statement":"SELECT * FROM events"}`
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	var (
		mu     sync.Mutex
		ttfrs  []time.Duration
		totals []time.Duration
		rows   atomic.Int64
	)

	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q0 := time.Now()
			resp, err := client.Post(ts.URL+"/query/stream", "application/json", strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			br := bufio.NewReader(resp.Body)
			var ttfr time.Duration
			for {
				line, rerr := br.ReadBytes('\n')
				if len(line) > 0 && ttfr == 0 {
					ttfr = time.Since(q0)
				}
				if bytes.Contains(line, []byte(`"type":"batch"`)) {
					rows.Add(int64(bytes.Count(line, []byte("],["))) + 1)
				}
				if rerr != nil {
					break
				}
			}
			total := time.Since(q0)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			mu.Lock()
			ttfrs = append(ttfrs, ttfr)
			totals = append(totals, total)
			mu.Unlock()
		}
	})
	elapsed := time.Since(t0)
	b.StopTimer()

	if len(totals) == 0 {
		return
	}
	sort.Slice(ttfrs, func(i, j int) bool { return ttfrs[i] < ttfrs[j] })
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	mid := func(d []time.Duration) time.Duration { return d[len(d)/2] }
	b.ReportMetric(float64(len(totals))/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(rows.Load())/elapsed.Seconds(), "rows/s")
	b.ReportMetric(float64(mid(ttfrs).Microseconds()), "ttfr-p50-us")
	b.ReportMetric(float64(mid(totals).Microseconds()), "full-p50-us")
}

func benchServe(b *testing.B, cfg polystore.ServeConfig, opts ...testOpt) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 200)
	if err != nil {
		b.Fatal(err)
	}
	ts := serveTest(b, cfg, opts,
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	)

	body := `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10"}`
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	b.ResetTimer()
	t0 := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q0 := time.Now()
			resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			lat := time.Since(q0)
			mu.Lock()
			latencies = append(latencies, lat)
			mu.Unlock()
		}
	})
	elapsed := time.Since(t0)
	b.StopTimer()

	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) time.Duration {
		return latencies[int(q*float64(len(latencies)-1))]
	}
	b.ReportMetric(float64(len(latencies))/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(pct(0.50).Microseconds()), "p50-us")
	b.ReportMetric(float64(pct(0.99).Microseconds()), "p99-us")
}
