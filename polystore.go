// Package polystore is the public API of Polystore++: an accelerated
// polystore system for heterogeneous workloads (Singhal et al., ICDCS
// 2019). A System federates heterogeneous data-processing engines —
// relational, graph, text, timeseries, key/value, and ML —
// behind one programming environment (the EIDE), compiles heterogeneous
// programs into a hierarchical IR, optimizes them across engine and
// hardware boundaries, and executes them on a middleware that offloads
// profitable operators to simulated hardware accelerators (GPU, FPGA,
// CGRA, TPU) and migrates data between engines over CSV, binary network
// pipes, or RDMA-style zero-copy transports.
//
// Quick start:
//
//	sys := polystore.New(
//	    polystore.WithRelational("db1", relStore),
//	    polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewTPU()),
//	)
//	p := sys.NewProgram()
//	q, _ := p.SQL("db1", "SELECT pid, age FROM patients WHERE age > 60")
//	_ = q
//	res, report, _ := sys.Run(context.Background(), p)
//
// The demo deployments of Figures 1 and 2 are one option each, WithRetail
// and WithClinical, over the stores internal/datagen generates and names.
package polystore

import (
	"context"
	"net/http"

	"polystorepp/internal/adapter"
	"polystorepp/internal/backend"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
	"polystorepp/internal/tenant"
	"polystorepp/internal/textstore"
	"polystorepp/internal/timeseries"
)

// Re-exported types so callers can use the facade without importing
// internal packages.
type (
	// Program is a heterogeneous program under construction.
	Program = eide.Program
	// Report is an execution report with simulated latency/energy.
	Report = core.Report
	// Results holds plan outputs.
	Results = core.Results
	// Options are compiler options (optimization level, acceleration).
	Options = compiler.Options
	// ServeConfig tunes the HTTP serving subsystem (workers, queue depth,
	// deadlines, plan cache size, frontend defaults).
	ServeConfig = server.Config
	// NLBinding names the engines the served NL translator targets.
	NLBinding = server.NLBinding
	// TenantQuota is one tenant's rate limit and burst allowance
	// (ServeConfig.TenantQuotas).
	TenantQuota = tenant.Quota
	// Backend is the durable storage backend hosting the engines' stores
	// (the one kind is "wal"); open one with OpenBackend, Attach stores,
	// Recover, Start, then pass it to WithBackend so acknowledged writes
	// wait on its group-commit fsync.
	Backend = backend.Backend
	// BackendConfig parameterizes OpenBackend (data dir, snapshot trigger).
	BackendConfig = backend.Config
)

// OpenBackend constructs a storage backend of the named kind ("wal"). See
// backend.Open.
func OpenBackend(kind string, cfg BackendConfig) (Backend, error) {
	return backend.Open(kind, cfg)
}

// BackendHasState reports whether dir holds persisted state from a previous
// run — the boot-time fork between recovering and seeding fresh demo data.
func BackendHasState(dir string) bool { return backend.HasState(dir) }

// ParseTenantQuotas parses a "tenant=rate:burst,..." spec into a
// ServeConfig.TenantQuotas map — the format polyserve's -tenant-quota flag
// accepts. An entry with any other number of fields is an error naming it.
func ParseTenantQuotas(spec string) (map[string]TenantQuota, error) {
	return tenant.ParseQuotas(spec)
}

// System is one Polystore++ deployment: engines + adapters + devices +
// middleware. Construct with New.
type System struct {
	runtime *core.Runtime
	opts    Options
	seed    int64

	pendingAdapters []adapter.Adapter
	accels          []*hw.Device
	mode            hw.Mode
	rtOpts          []core.Option
}

// Option configures a System.
type Option func(*System)

// WithRelational registers a relational store under an engine name.
func WithRelational(name string, s *relational.Store) Option {
	return func(sys *System) {
		sys.pendingAdapters = append(sys.pendingAdapters, adapter.NewRelational(name, relational.NewEngine(s)))
	}
}

// WithText registers a text store.
func WithText(name string, s *textstore.Store) Option {
	return func(sys *System) {
		sys.pendingAdapters = append(sys.pendingAdapters, adapter.NewText(name, s))
	}
}

// WithTimeseries registers a timeseries store.
func WithTimeseries(name string, s *timeseries.Store) Option {
	return func(sys *System) {
		sys.pendingAdapters = append(sys.pendingAdapters, adapter.NewTimeseries(name, s))
	}
}

// WithKV registers a key/value store.
func WithKV(name string, s *kvstore.Store) Option {
	return func(sys *System) {
		sys.pendingAdapters = append(sys.pendingAdapters, adapter.NewKV(name, s))
	}
}

// WithML registers an ML/DL engine instance.
func WithML(name string) Option {
	return func(sys *System) {
		sys.pendingAdapters = append(sys.pendingAdapters, adapter.NewML(name, sys.seed))
	}
}

// WithClinical registers the clinical demo deployment of Figure 2 (see
// datagen.NewClinical): its relational, timeseries and text stores,
// each under the engine name it carries, and the ML engine. c.Binding names
// the engines for the NL translator and the Figure 2 pipeline.
func WithClinical(c *datagen.Clinical) Option {
	return func(sys *System) {
		b := c.Binding()
		WithRelational(b.Relational, c.Relational)(sys)
		WithTimeseries(b.Timeseries, c.Timeseries)(sys)
		WithText(b.Text, c.Text)(sys)
		WithML(b.ML)(sys)
	}
}

// WithRetail registers the retail demo deployment of Figure 1 (see
// datagen.NewRetail): its relational, timeseries and key/value stores, each
// under the engine name it carries, and the ML engine.
func WithRetail(r *datagen.Retail) Option {
	return func(sys *System) {
		WithRelational(r.Relational.Name(), r.Relational)(sys)
		WithTimeseries(r.Timeseries.Name(), r.Timeseries)(sys)
		WithKV(r.KV.Name(), r.KV)(sys)
		WithML(datagen.MLEngine)(sys)
	}
}

// WithAccelerators attaches hardware accelerator models in the given
// deployment mode.
func WithAccelerators(mode hw.Mode, devices ...*hw.Device) Option {
	return func(sys *System) {
		sys.mode = mode
		sys.accels = append(sys.accels, devices...)
	}
}

// WithCompilerOptions sets the default compiler options for Run.
func WithCompilerOptions(o Options) Option {
	return func(sys *System) { sys.opts = o }
}

// WithSeed fixes the RNG seed used by ML adapters (default 1).
func WithSeed(seed int64) Option {
	return func(sys *System) { sys.seed = seed }
}

// WithBackend attaches a storage backend's durability barrier to the
// runtime: Ingest acknowledges a write only after the backend reports it
// durable. The caller owns the backend lifecycle (Attach/Recover/Start
// before building the System, Close after).
func WithBackend(b Backend) Option {
	return func(sys *System) {
		if b != nil {
			sys.rtOpts = append(sys.rtOpts, core.WithDurabilityBarrier(b))
		}
	}
}

// WithSubplanCacheBytes sizes the subplan cache every Handler over the System
// shares: 0 keeps the default (64 MiB), negative disables it.
func WithSubplanCacheBytes(n int64) Option {
	return func(sys *System) { sys.rtOpts = append(sys.rtOpts, core.WithSubplanCacheBytes(n)) }
}

// New builds a System. The default compiler options enable all
// optimization levels and acceleration when accelerators are attached.
func New(opts ...Option) *System {
	sys := &System{
		mode: hw.Coprocessor,
		seed: 1,
		opts: Options{Level: 3},
	}
	for _, o := range opts {
		o(sys)
	}
	if len(sys.accels) > 0 {
		sys.opts.Accel = true
	}
	rtOpts := sys.rtOpts
	if len(sys.accels) > 0 {
		rtOpts = append(rtOpts, core.WithAccelerators(sys.mode, sys.accels...))
	}
	sys.runtime = core.NewRuntime(hw.NewHostCPU(), rtOpts...)
	for _, a := range sys.pendingAdapters {
		sys.runtime.Register(a)
	}
	return sys
}

// NewProgram starts an empty heterogeneous program.
func (sys *System) NewProgram() *Program { return eide.NewProgram() }

// Run compiles and executes the program with the system's default options.
func (sys *System) Run(ctx context.Context, p *Program) (*Results, *Report, error) {
	return sys.RunWith(ctx, p, sys.opts)
}

// RunWith compiles and executes the program with explicit options (report rows too).
func (sys *System) RunWith(ctx context.Context, p *Program, opts Options) (*Results, *Report, error) {
	plan, err := compiler.Compile(p.Graph(), opts)
	if err != nil {
		return nil, nil, err
	}
	return sys.runtime.Execute(core.WithNodeReports(ctx), plan)
}

// Engines returns the registered engine instance names, sorted.
func (sys *System) Engines() []string { return sys.runtime.Engines() }

// Handler returns the HTTP serving subsystem over this system: POST /query
// (sql, nl, text and multi-engine program frontends through the plan cache
// and admission-controlled worker pool), POST /query/stream (the same
// answer as NDJSON records), POST /ingest, GET
// /healthz, /metrics and /stats. The handler shares the system's runtime —
// its engines, accelerator models and subplan cache — and compiles every
// request under the system's compiler options.
func (sys *System) Handler(cfg ServeConfig) http.Handler {
	return server.New(sys.runtime, sys.opts, cfg)
}

// Serve runs the HTTP serving subsystem on addr until ctx is canceled, then
// drains in-flight requests and shuts down.
func (sys *System) Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	return server.ListenAndServe(ctx, addr, server.New(sys.runtime, sys.opts, cfg))
}

// NLTranslator builds a natural-language query translator (§IV-A-e) whose
// programs run on the engines b names — for the clinical demo deployment,
// datagen.Clinical.Binding.
func (sys *System) NLTranslator(b NLBinding) *eide.NLTranslator {
	return eide.NewNLTranslator(b)
}
