// Package experiments implements the reproduction experiments E1–E15: one
// per figure scenario and per quantitative claim of the paper (PAPER.md).
// Each experiment returns a Table that cmd/polybench prints and the root
// bench_test.go measures.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/relational"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func secs(s float64) string { return f("%.6fs", s) }

// runProgram compiles and executes a program, returning the report, rows too.
func runProgram(ctx context.Context, rt *core.Runtime, g *ir.Graph, opts compiler.Options) (*core.Results, *core.Report) {
	res, rep, err := rt.Execute(core.WithNodeReports(ctx), must(compiler.Compile(g, opts)))
	check(err)
	return res, rep
}

// --- E1: Figure 1 — recommendation across RDBMS + timeseries ---
// (The Figure 1 KV read, the external events, runs in
// examples/recommendation.)

// E01Recommendation compares one-size-fits-all, federated polystore, and
// Polystore++ execution of the Figure 1 recommendation workload.
func E01Recommendation(scale int) *Table {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	n := 400 * scale
	data := must(datagen.GenerateRetail(rng, n, 5))
	warehouse := relational.NewStore("warehouse")

	type variant struct {
		name      string
		pushdown  bool // aggregate at source vs centrally
		accel     bool
		transport migrate.Transport
	}
	variants := []variant{
		{"one-size-fits-all (central, csv)", false, false, migrate.CSV},
		{"polystore (federated, csv)", true, false, migrate.CSV},
		{"polystore++ (federated, pipe, accel)", true, true, migrate.Pipe},
	}

	tab := &Table{
		ID:     "E1",
		Title:  "Figure 1 recommendation workload (customers ⋈ transactions ⋈ clicks)",
		Header: []string{"variant", "sim latency", "energy (J)", "migrated bytes", "wall"},
	}
	for _, v := range variants {
		sys := buildRetailSystem(data, warehouse, v.accel)
		p := eide.NewProgram()
		g := p.Graph()

		db := data.Relational.Name()
		custScan := g.Add(ir.OpScan, db, map[string]any{"table": "customers"})
		txScan := g.Add(ir.OpScan, db, map[string]any{"table": "transactions"})
		aggEngine := "warehouse"
		if v.pushdown {
			aggEngine = db
		}
		txAgg := g.Add(ir.OpGroupBy, aggEngine, map[string]any{
			"group_cols": []string{"cid"},
			"aggs": []relational.AggSpec{
				{Fn: relational.AggSum, Col: "amount", As: "spend"},
				{Fn: relational.AggCount, As: "n_tx"},
			},
		}, txScan)
		// Rename the group key so the downstream join schema stays unique.
		txAgg = g.Add(ir.OpProject, aggEngine, map[string]any{"items": []relational.ProjItem{
			{E: relational.ColRef{Name: "cid"}, Name: "tcid"},
			{E: relational.ColRef{Name: "spend"}, Name: "spend"},
			{E: relational.ColRef{Name: "n_tx"}, Name: "n_tx"},
		}}, txAgg)
		clicks := g.Add(ir.OpTSWindow, data.Timeseries.Name(), map[string]any{"series_prefix": "clicks/"})
		joined := g.Add(ir.OpHashJoin, "warehouse", map[string]any{"left_col": "cid", "right_col": "tcid"}, custScan, txAgg)
		final := g.Add(ir.OpHashJoin, "warehouse", map[string]any{"left_col": "cid", "right_col": "vpid"}, joined, clicks)
		_ = final

		_, rep := runProgram(ctx, sys, g, compiler.Options{
			Level: 3, Accel: v.accel, Transport: v.transport,
		})
		// "one-size-fits-all" disables the pushdown by construction (the
		// group-by was placed centrally), so Level stays 3 for fairness of
		// the other passes.
		tab.Rows = append(tab.Rows, []string{
			v.name, secs(rep.Latency), f("%.3f", rep.Energy), f("%d", rep.MigratedBytes), rep.Wall.String(),
		})
	}
	tab.Notes = append(tab.Notes,
		f("%d customers, %d transactions; expected ordering: one-size-fits-all > polystore > polystore++", n, n*5))
	return tab
}

func buildRetailSystem(data *datagen.Retail, warehouse *relational.Store, accel bool) *core.Runtime {
	host := hw.NewHostCPU()
	var opts []core.Option
	if accel {
		opts = append(opts, core.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	}
	rt := core.NewRuntime(host, opts...)
	registerRetail(rt, data, warehouse)
	return rt
}

// --- E2: Figure 2 — clinical heterogeneous program ---

// E02Clinical runs the MIMIC-like ICU length-of-stay pipeline CPU-only vs
// accelerated and reports end-to-end simulated latency.
func E02Clinical(scale int) *Table {
	ctx := context.Background()
	n := 800 * scale
	tab := &Table{
		ID:     "E2",
		Title:  "Figure 2 clinical pipeline (relational + timeseries + text + DNN)",
		Header: []string{"variant", "sim latency", "energy (J)", "migrations", "pred rows", "wall"},
	}
	for _, accel := range []bool{false, true} {
		data := must(datagen.GenerateClinical(rand.New(rand.NewSource(42)), n))
		rt := clinicalRuntime(data, accel)
		p := eide.NewProgram()
		pred := must(eide.BuildClinicalPipeline(p, data.Binding()))
		// The CPU polystore moves data via the portable CSV CAST path; the
		// Polystore++ variant uses RDMA pipes and accelerator offload — the
		// §III-A acceleration levers.
		transport := migrate.CSV
		if accel {
			transport = migrate.RDMA
		}
		res, rep := runProgram(ctx, rt, p.Graph(), compiler.Options{Level: 3, Accel: accel, Transport: transport})
		name := "polystore (cpu, csv cast)"
		if accel {
			name = "polystore++ (rdma + fpga/gpu/tpu)"
		}
		rows := 0
		if b := res.Values[pred].Batch; b != nil {
			rows = b.Rows()
		}
		tab.Rows = append(tab.Rows, []string{
			name, secs(rep.Latency), f("%.3f", rep.Energy), f("%d", rep.Migrations), f("%d", rows), rep.Wall.String(),
		})
	}
	tab.Notes = append(tab.Notes, f("%d patients; paper targets few-ms latency for the accelerated path", n))
	return tab
}

// --- E3: Figure 3 — Snorkel training loop with SQL load_data ---

// E03Snorkel measures the share of epoch time spent in load_data and the
// effect of offloading the load path (FPGA stream filter/project on the
// storage path) and the gradient GEMMs (TPU). Both variants pay the same
// storage->device byte movement, so only compute is compared.
func E03Snorkel(scale int) *Table {
	ctx := context.Background()
	n := 100_000 * scale
	store := must(datagen.GenerateSnorkel(rand.New(rand.NewSource(5)), n/5))
	engine := relational.NewEngine(store)
	const batchSize = 1024
	epochBatches := (n + batchSize - 1) / batchSize

	// Wall-clock measurement of load_data via real SQL on the smaller
	// materialized table (per-batch indexed range queries).
	tLoad := time.Now()
	for lo := 0; lo < n/5; lo += batchSize {
		sql := f("SELECT f0, f1, f2, f3, weak_label FROM unlabeled WHERE id >= %d AND id < %d", lo, lo+batchSize)
		_, _, err := engine.Query(ctx, sql)
		check(err)
	}
	loadWall := time.Since(tLoad)

	cpu, fpga, tpu := hw.NewHostCPU(), hw.NewFPGA(), hw.NewTPU()
	must(fpga.ConfigureKernel(hw.KFilter.String(), hw.LUTCost(hw.KFilter)))
	rowBytes := int64(5 * 8)
	loadWork := hw.Work{Items: int64(n), Bytes: int64(n) * rowBytes}
	cpuFilter := must(cpu.KernelCost(hw.KFilter, loadWork))
	cpuProject := must(cpu.KernelCost(hw.KProject, loadWork))
	cpuLoad := cpuFilter.AddSeq(cpuProject)
	// Bump-in-the-wire: the FPGA filters+projects on the storage path it
	// already sits on, so only its (line-rate-floored) kernel time counts.
	fpgaLoad := must(fpga.KernelCost(hw.KFilter, loadWork))
	// Train cost: a 4-128-1 MLP padded to systolic-friendly shapes; 3 GEMMs
	// per layer per batch, 2 layers.
	gemm := hw.Work{M: batchSize, K: 128, N: 128, Bytes: int64(batchSize*128+128*128) * 8}
	cpuGemm := must(cpu.KernelCost(hw.KGEMM, gemm))
	tpuGemm := must(tpu.Offload(hw.Coprocessor, hw.KGEMM, gemm, gemm.Bytes))
	nGemms := float64(epochBatches * 6)
	cpuTrain := cpuGemm.Seconds * nGemms
	tpuTrain := tpuGemm.Seconds * nGemms

	tab := &Table{
		ID:     "E3",
		Title:  "Figure 3 Snorkel loop: load_data share and offload effect (per epoch)",
		Header: []string{"variant", "load (s)", "train (s)", "epoch (s)", "load share", "speedup"},
	}
	base := cpuLoad.Seconds + cpuTrain
	rows := []struct {
		name        string
		load, train float64
	}{
		{"cpu load + cpu train", cpuLoad.Seconds, cpuTrain},
		{"fpga load + cpu train", fpgaLoad.Seconds, cpuTrain},
		{"fpga load + tpu train", fpgaLoad.Seconds, tpuTrain},
	}
	for _, r := range rows {
		total := r.load + r.train
		tab.Rows = append(tab.Rows, []string{
			r.name, secs(r.load), secs(r.train), secs(total),
			f("%.1f%%", 100*r.load/total), f("%.2fx", base/total),
		})
	}
	tab.Notes = append(tab.Notes,
		f("%d rows/epoch, batch %d; measured load_data wall time (real SQL, %d rows): %s", n, batchSize, n/5, loadWall))
	return tab
}

// --- E4: §III worked example — Admission ⋈ Patients across DB1/DB2 ---

// E04CrossDBJoin reproduces the paper's worked example: DB1 holds
// admissions, DB2 holds patients; DB2's projection migrates to DB1, which
// joins and sorts by date. Variants: baseline vs accelerated sort +
// pipelined (RDMA) migration.
func E04CrossDBJoin(scale int) *Table {
	ctx := context.Background()
	n := 2000 * scale
	data := must(datagen.GenerateClinical(rand.New(rand.NewSource(9)), n))
	// DB2: separate store holding only patients.
	db2 := relational.NewStore("db2")
	pt := must(db2.CreateTable("patients", datagen.PatientsSchema()))
	src := must(data.Relational.Table("patients"))
	check(pt.InsertBatch(src.Snapshot()))

	type variant struct {
		name      string
		accel     bool
		transport migrate.Transport
	}
	tab := &Table{
		ID:     "E4",
		Title:  "§III worked example: Admission ⋈ Patients across DB1/DB2, sort by date",
		Header: []string{"variant", "sim latency", "migrate (s)", "sort (s)", "rows", "wall"},
	}
	for _, v := range []variant{
		{"baseline (csv, cpu sort)", false, migrate.CSV},
		{"polystore++ (rdma pipe, fpga sort)", true, migrate.RDMA},
	} {
		host := hw.NewHostCPU()
		var copts []core.Option
		if v.accel {
			copts = append(copts, core.WithAccelerators(hw.Coprocessor, hw.NewFPGA()))
		}
		rt := core.NewRuntime(host, copts...)
		registerClinical(rt, data)
		registerExtraRelational(rt, "db2", db2)

		p := eide.NewProgram()
		g := p.Graph()
		db1 := data.Relational.Name()
		adm := g.Add(ir.OpScan, db1, map[string]any{"table": "admissions"})
		admProj := g.Add(ir.OpProject, db1, map[string]any{"items": []relational.ProjItem{
			{E: relational.ColRef{Name: "pid"}, Name: "pid"},
			{E: relational.ColRef{Name: "date"}, Name: "date"},
		}}, adm)
		pats := g.Add(ir.OpScan, "db2", map[string]any{"table": "patients"})
		patProj := g.Add(ir.OpProject, "db2", map[string]any{"items": []relational.ProjItem{
			{E: relational.ColRef{Name: "pid"}, Name: "ppid"},
		}}, pats)
		join := g.Add(ir.OpMergeJoin, db1, map[string]any{"left_col": "pid", "right_col": "ppid"}, admProj, patProj)
		g.Add(ir.OpSort, db1, map[string]any{"order_by": []relational.OrderItem{{Col: "date"}}}, join)

		res, rep := runProgram(ctx, rt, g, compiler.Options{Level: 3, Accel: v.accel, Transport: v.transport})
		var migS, sortS float64
		for _, nr := range rep.Nodes {
			switch nr.Kind {
			case ir.OpMigrate:
				migS += nr.Sim.Seconds
			case ir.OpSort, ir.OpMergeJoin:
				sortS += nr.Sim.Seconds
			}
		}
		tab.Rows = append(tab.Rows, []string{
			v.name, secs(rep.Latency), secs(migS), secs(sortS),
			f("%d", res.First().Rows()), rep.Wall.String(),
		})
	}
	tab.Notes = append(tab.Notes, f("%d patients, ~%d admissions", n, 2*n))
	return tab
}

// --- E5: §III-A2 — sequential scan through a bump-in-the-wire FPGA ---

// E05ScanOffload sweeps filter selectivity and compares host filtering with
// FPGA bump-in-the-wire filtering, reporting bytes reaching host memory.
func E05ScanOffload(scale int) *Table {
	n := int64(1<<21) * int64(scale)
	cpu, fpga := hw.NewHostCPU(), hw.NewFPGA()
	must(fpga.ConfigureKernel(hw.KFilter.String(), hw.LUTCost(hw.KFilter)))
	tab := &Table{
		ID:     "E5",
		Title:  "§III-A2 scan offload: FPGA bump-in-the-wire filter vs host filter",
		Header: []string{"selectivity", "cpu (s)", "fpga (s)", "speedup", "bytes to host (cpu)", "bytes to host (fpga)"},
	}
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		w := hw.Work{Items: n, Bytes: n * 8}
		cpuC := must(cpu.KernelCost(hw.KFilter, w))
		outBytes := int64(float64(n*8) * sel)
		fpgaC := must(fpga.Offload(hw.BumpInTheWire, hw.KFilter, w, outBytes))
		tab.Rows = append(tab.Rows, []string{
			f("%.3f", sel), secs(cpuC.Seconds), secs(fpgaC.Seconds),
			f("%.2fx", cpuC.Seconds/fpgaC.Seconds),
			f("%d", n*8), f("%d", outBytes),
		})
	}
	tab.Notes = append(tab.Notes,
		f("%d items; in bump-in-the-wire mode the FPGA filters at line rate, so host traffic shrinks by the selectivity", n))
	return tab
}
