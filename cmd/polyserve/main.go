// Command polyserve runs the Polystore++ query-serving subsystem: an
// HTTP/JSON front end over a configured deployment of engines, accelerator
// models and seeded demo data.
//
// Usage:
//
//	polyserve                              # clinical scenario on :8080
//	polyserve -addr :9090 -scenario retail
//	polyserve -scenario both -patients 500 -workers 16 -queue 64
//
// Endpoints: POST /query, POST /query/stream (the same request, answered as
// NDJSON records while the result is produced), POST /ingest, GET /healthz,
// GET /metrics, GET /stats, GET /debug/queries.
//
//	curl -s localhost:8080/query -d '{"frontend":"sql","engine":"db-clinical",
//	  "statement":"SELECT pid, age FROM patients WHERE age > 60 LIMIT 5"}'
//	curl -s localhost:8080/query -d '{"frontend":"nl","statement":"how many patients are there?"}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `polyserve — Polystore++ HTTP query server

Serves SQL, natural-language, text and multi-engine program queries over a
seeded demo deployment (see -scenario). Admission control bounds concurrent
executions; a plan cache skips recompilation of hot queries. Every request
compiles under -level and -accel.

Requests carry a tenant identity in the X-Tenant header (default "anon").
Per-tenant token buckets (-tenant-rate, -tenant-burst, -tenant-quota),
round-robin admission over tenants, per-tenant circuit breakers and load
shedding (-shed-highwater) isolate tenants under overload. A tenant's
breaker opens when half of at least 20 requests in 10s failed, and probes
again after 5s. SIGTERM drains in-flight work bounded by -drain-timeout
before exiting.

Placement and partition fan-out are static: the device of an offloadable
kernel is the cheapest under the hw cost model, and a node fans out at the
size its input justifies (a request can pin neither). Simulated
latency and energy are a function of plan, data and attached devices, never
of request history.

With -data-dir the relational, timeseries and key/value engines persist
through a write-ahead log with snapshot compaction: acknowledged ingests
survive a crash, and a restart over the same directory recovers them instead
of reseeding. A write is acknowledged only after an fsync covers it (group
commit); -snapshot-bytes sets the log size that triggers compaction.
The text engine is demo-seeded only and always reseeds.

Usage:
  polyserve [flags]

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scenario := flag.String("scenario", "clinical", "demo deployment: clinical, retail, or both")
	patients := flag.Int("patients", 200, "synthetic patients (clinical scenario)")
	customers := flag.Int("customers", 200, "synthetic customers (retail scenario)")
	txPerCustomer := flag.Int("tx", 20, "transactions per customer (retail scenario)")
	accel := flag.Bool("accel", true, "attach hardware accelerator models (FPGA, GPU, TPU)")
	level := flag.Int("level", 3, "optimization level 0..3 every request compiles under")
	seed := flag.Int64("seed", 42, "data generator seed")
	workers := flag.Int("workers", 8, "concurrent query executions")
	queue := flag.Int("queue", 32, "admission queue depth beyond workers (overflow -> 429; 0 disables queuing)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	planCache := flag.Int("plancache", 256, "plan-cache LRU entries: one per compiled plan under its plan key, and one more per SQL or program shape under its shape key")
	subplanCache := flag.Int64("subplancache", 64<<20, "subplan-cache byte budget for memoized intermediates shared across near-identical queries; 0 disables")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profile handlers under /debug/pprof/")
	traceAll := flag.Bool("traceall", false, "trace every request server-side so /debug/queries captures recent and slowest executions")
	tenantRate := flag.Float64("tenant-rate", 0, "default per-tenant request rate limit in req/s (0 = unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "default per-tenant token-bucket burst (effective only with -tenant-rate > 0; clamped to >= 1)")
	tenantQuota := flag.String("tenant-quota", "", `per-tenant rate-limit overrides: "tenant=rate:burst,..."`)
	shedHighWater := flag.Float64("shed-highwater", 0, "utilization fraction of workers+queue at which executions are shed (0 = default 0.85; negative disables shedding)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "bound on draining in-flight requests at shutdown; new work gets 503 while draining")
	dataDir := flag.String("data-dir", "", "durable storage directory: WAL + snapshot persistence for relational, timeseries and kv engines (empty = in-memory only)")
	snapshotBytes := flag.Int64("snapshot-bytes", 0, "WAL size that triggers snapshot compaction (0 = default 8 MiB; negative disables automatic snapshots)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "polyserve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	quotas, err := polystore.ParseTenantQuotas(*tenantQuota)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polyserve: -tenant-quota: %v\n", err)
		os.Exit(2)
	}

	if *queue == 0 {
		*queue = -1 // flag 0 means "no queue"; Config zero means "default"
	}
	if *subplanCache == 0 {
		*subplanCache = -1 // flag 0 means "off"; WithSubplanCacheBytes zero means "default"
	}
	cfg := polystore.ServeConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		PlanCacheSize:  *planCache,
		EnablePprof:    *pprofOn,
		TraceAll:       *traceAll,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		TenantQuotas:   quotas,
		ShedHighWater:  *shedHighWater,
		DrainTimeout:   *drainTimeout,
	}

	if err := run(*addr, *scenario, *patients, *customers, *txPerCustomer,
		*accel, *level, *seed, *dataDir, *snapshotBytes, *subplanCache, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "polyserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, scenario string, patients, customers, txPerCustomer int,
	accel bool, level int, seed int64, dataDir string, snapshotBytes, subplanBytes int64,
	cfg polystore.ServeConfig) error {
	rng := rand.New(rand.NewSource(seed))
	var opts []polystore.Option

	wantClinical := scenario == "clinical" || scenario == "both"
	wantRetail := scenario == "retail" || scenario == "both"
	if !wantClinical && !wantRetail {
		return fmt.Errorf("unknown scenario %q (want clinical, retail, or both)", scenario)
	}

	// With -data-dir the durable engines (relational, timeseries, kv) live on
	// the WAL backend. A directory with prior state recovers into fresh empty
	// stores — the demo seed only applies on first boot, so acknowledged
	// ingests survive restarts instead of being reseeded over.
	var bk polystore.Backend
	recovering := false
	if dataDir != "" {
		var err error
		bk, err = polystore.OpenBackend("wal", polystore.BackendConfig{
			Dir: dataDir, SnapshotBytes: snapshotBytes,
			Logf: func(format string, args ...any) {
				fmt.Printf("polyserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("open backend: %w", err)
		}
		recovering = polystore.BackendHasState(dataDir)
	}

	if wantClinical {
		data, err := datagen.GenerateClinical(rng, patients)
		if err != nil {
			return fmt.Errorf("generate clinical data: %w", err)
		}
		if recovering {
			empty := datagen.NewClinical()
			data.Relational, data.Timeseries = empty.Relational, empty.Timeseries
		}
		if bk != nil {
			bk.Attach(data.Relational.Name(), data.Relational)
			bk.Attach(data.Timeseries.Name(), data.Timeseries)
		}
		opts = append(opts, polystore.WithClinical(data))
		cfg.NL = data.Binding()
		cfg.DefaultSQLEngine, cfg.DefaultTextEngine = cfg.NL.Relational, cfg.NL.Text
	}
	if wantRetail {
		data, err := datagen.GenerateRetail(rng, customers, txPerCustomer)
		if err != nil {
			return fmt.Errorf("generate retail data: %w", err)
		}
		if recovering {
			data = datagen.NewRetail()
		}
		if bk != nil {
			bk.Attach(data.Relational.Name(), data.Relational)
			bk.Attach(data.Timeseries.Name(), data.Timeseries)
			bk.Attach(data.KV.Name(), data.KV)
		}
		opts = append(opts, polystore.WithRetail(data))
		if !wantClinical {
			cfg.DefaultSQLEngine = data.Relational.Name()
		}
	}
	if bk != nil {
		rec, err := bk.Recover()
		if err != nil {
			return fmt.Errorf("recover %s: %w", dataDir, err)
		}
		if err := bk.Start(); err != nil {
			return fmt.Errorf("start backend: %w", err)
		}
		if !rec.Recovered {
			// First boot over this directory: persist the demo seed so the
			// next restart recovers rather than reseeds.
			if err := bk.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint seed: %w", err)
			}
		}
		defer bk.Close()
		opts = append(opts, polystore.WithBackend(bk))
		cfg.Backend = bk
	}
	if accel {
		opts = append(opts, polystore.WithAccelerators(hw.Coprocessor,
			hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	}
	opts = append(opts, polystore.WithSeed(seed), polystore.WithSubplanCacheBytes(subplanBytes),
		polystore.WithCompilerOptions(polystore.Options{Level: level, Accel: accel}))

	sys := polystore.New(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("polyserve: scenario=%s listening on %s (workers=%d queue=%d timeout=%s plancache=%d subplancache=%d level=%d accel=%t pprof=%t traceall=%t)\n",
		scenario, addr, cfg.Workers, cfg.QueueDepth, cfg.DefaultTimeout, cfg.PlanCacheSize,
		subplanBytes, level, accel, cfg.EnablePprof, cfg.TraceAll)
	fmt.Printf("polyserve: tenancy rate=%g burst=%g quotas=%d shed=%g drain=%s\n",
		cfg.TenantRate, cfg.TenantBurst, len(cfg.TenantQuotas), cfg.ShedHighWater, cfg.DrainTimeout)
	if bk != nil {
		bs := bk.Stats()
		fmt.Printf("polyserve: durability dir=%s snapshot-trigger=%d recovered=%t replay-records=%d\n",
			dataDir, bs.SnapshotTrigger, recovering, bs.ReplayRecords)
		fmt.Printf("polyserve: durable stores=%v; volatile engines (state lost on restart)=%v\n",
			bs.Stores, bs.Volatile(sys.Engines()))
	}
	err := sys.Serve(ctx, addr, cfg)
	if err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Println("polyserve: shut down")
	return nil
}
