package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"

	"polystorepp/internal/adapter"
	"polystorepp/internal/backend"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
	"polystorepp/internal/textstore"
	"polystorepp/internal/timeseries"
)

// Engine instance names of the benchmark deployment (the clinical scenario's).
const (
	relEngine  = "db-clinical"
	tsEngine   = "ts-vitals"
	textEngine = "txt-notes"
	mlEngine   = "ml"
)

// kinds is the number of distinct events.kind values (kind = id % kinds).
const kinds = 97

// scale sizes the dataset. fullScale is what every reported number is
// measured on; the self-test shrinks it.
type scale struct {
	Patients int
	Events   int
	Audit    int
}

var fullScale = scale{Patients: 2000, Events: 50000, Audit: 1000}

// compileOpts are the deployment's default compiler options: every
// optimization level, accelerator kernel selection on (what polystore.New
// picks when accelerators are attached).
var compileOpts = compiler.Options{Level: 3, Accel: true}

// dataset is one generated copy of the benchmark data.
type dataset struct {
	rel  *relational.Store
	ts   *timeseries.Store
	text *textstore.Store
}

// eventsSchema is events(id, kind, value).
func eventsSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64},
	)
}

// auditSchema is audit(id, pid, code): the table that takes relational writes.
func auditSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "code", Type: cast.Int64},
	)
}

// generate builds the dataset from seed: the clinical scenario plus the
// events and audit tables in the same relational store. The same seed gives
// byte-identical data, which is what lets a twin deployment act as oracle.
func generate(seed int64, sc scale) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	clin, err := datagen.GenerateClinical(rng, sc.Patients)
	if err != nil {
		return nil, fmt.Errorf("generate clinical data: %w", err)
	}
	events, err := clin.Relational.CreateTable("events", eventsSchema())
	if err != nil {
		return nil, err
	}
	eb := cast.NewBatch(events.Schema(), sc.Events)
	for i := 0; i < sc.Events; i++ {
		if err := eb.AppendRow(int64(i), int64(i%kinds), float64(rng.Intn(8_000_000))/8); err != nil {
			return nil, err
		}
	}
	if err := events.InsertBatch(eb); err != nil {
		return nil, err
	}
	audit, err := clin.Relational.CreateTable("audit", auditSchema())
	if err != nil {
		return nil, err
	}
	ab := cast.NewBatch(audit.Schema(), sc.Audit)
	for i := 0; i < sc.Audit; i++ {
		if err := ab.AppendRow(int64(i), int64(rng.Intn(sc.Patients)), int64(rng.Intn(50))); err != nil {
			return nil, err
		}
	}
	if err := audit.InsertBatch(ab); err != nil {
		return nil, err
	}
	return &dataset{rel: clin.Relational, ts: clin.Timeseries, text: clin.Text}, nil
}

// newRuntime registers the dataset's engines on a runtime built the way
// polystore.New builds one: host CPU, FPGA+GPU+TPU in coprocessor mode.
func newRuntime(d *dataset, opts ...core.Option) *core.Runtime {
	opts = append([]core.Option{
		core.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	}, opts...)
	rt := core.NewRuntime(hw.NewHostCPU(), opts...)
	rt.Register(adapter.NewRelational(relEngine, relational.NewEngine(d.rel)))
	rt.Register(adapter.NewTimeseries(tsEngine, d.ts))
	rt.Register(adapter.NewText(textEngine, d.text))
	rt.Register(adapter.NewML(mlEngine, 1))
	return rt
}

// snapshotBytes is the WAL size that triggers compaction: small enough that
// the write workload completes several cycles inside one measured window.
// Every workload's deployment is configured the same; only traffic differs.
const snapshotBytes = 256 << 10

// deployment is one booted server: stores on the wal backend (group sync) in
// a fresh directory, production-default serving configuration, and a loopback
// listener. The layer pass calls srv and rt directly.
type deployment struct {
	data   *dataset
	bk     backend.Backend
	walDir string
	rt     *core.Runtime
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

// boot generates the data and brings up one deployment under dir.
func boot(seed int64, sc scale, dir string) (*deployment, error) {
	data, err := generate(seed, sc)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	d := &deployment{data: data, walDir: walDir}
	d.bk, err = backend.Open("wal", backend.Config{
		Dir: walDir, Sync: backend.SyncGroup, SnapshotBytes: snapshotBytes,
	})
	if err != nil {
		_ = os.RemoveAll(walDir)
		return nil, fmt.Errorf("open backend: %w", err)
	}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// start recovers (nothing, the directory is fresh), checkpoints the seed data
// so a restart would recover it, and serves on a loopback port.
func (d *deployment) start() error {
	d.bk.AttachRelational(relEngine, d.data.rel)
	d.bk.AttachTimeseries(tsEngine, d.data.ts)
	if _, err := d.bk.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := d.bk.Start(); err != nil {
		return fmt.Errorf("start backend: %w", err)
	}
	if err := d.bk.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint seed: %w", err)
	}
	d.rt = newRuntime(d.data, core.WithDurabilityBarrier(d.bk))
	// Production defaults: every reuse layer, admission and the adaptive
	// loop on. Only the row cap and the engine bindings are set.
	d.srv = server.New(d.rt, compileOpts, server.Config{
		MaxRows:           50000,
		DefaultSQLEngine:  relEngine,
		DefaultTextEngine: textEngine,
		NL: server.NLBinding{
			Relational: relEngine, Timeseries: tsEngine, Text: textEngine, ML: mlEngine,
		},
		Backend: d.bk,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	return nil
}

// close stops the listener and its connections (no request is in flight
// when the harness closes a deployment), waits for the serve goroutine,
// closes the backend and removes the WAL directory.
func (d *deployment) close() {
	if d.hs != nil {
		_ = d.hs.Close()
		<-d.served
	}
	_ = d.bk.Close()
	_ = os.RemoveAll(d.walDir)
}
