package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the harness's own
// catalogue, name for name, and to the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if got := strings.Join(doc.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloadNames) || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		name("workload", w.Name)
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d = %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		name("metric", m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %q: bad unit, bound or direction: %+v", m.Name, m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(doc.PerLayer) != len(perLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name("metric", m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %q: bad unit or direction: %+v", m.Name, m)
		}
	}
}

// testConfig is a short window on a small dataset.
func testConfig(t *testing.T) runConfig {
	return runConfig{
		seed: 7, window: 300 * time.Millisecond, trace: -1, clients: 2,
		scale: scale{Patients: 200, Events: 2000, Audit: 100}, outDir: t.TempDir(), warmupScale: 0.05,
	}
}

// differences are metrics defined as one measurement minus another; noise
// can take them below zero.
var differences = map[string]bool{
	"client.http_overhead_us": true, "server.residual_us": true, "server.residual_share": true,
	"adapter.overhead_us": true, "backend.durable_cost_us": true, "obs.trace_overhead_pct": true,
	"core.overhead_us": true,
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly and checks
// that what it emits is exactly the catalogue, with sane values.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(testConfig(t), name)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range res.Warnings {
				t.Log("warning:", w)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%t attempted=%d failed=%d first error: %s", res.Correct, res.Attempted, res.Failed, res.Header.FirstError)
			}
			if res.Header.OracleChecked == 0 {
				t.Error("the oracle compared no response")
			}
			check := func(kind string, defs []metricDef, got metricSet, positive bool) {
				if len(got) != len(defs) {
					t.Errorf("%d %s metrics emitted, catalogue has %d", len(got), kind, len(defs))
				}
				for _, d := range defs {
					v, ok := got[d.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s: unit %q, catalogue says %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", d.Name, v.Value)
					case positive && v.Value <= 0:
						t.Errorf("%s = %v, an end-to-end metric must never read 0", d.Name, v.Value)
					case v.Value < 0 && !differences[d.Name]:
						t.Errorf("%s = %v is negative", d.Name, v.Value)
					}
				}
			}
			check("end-to-end", endToEnd, res.E2E, true)
			check("per-layer", perLayer, res.Layer, false)

			w, err := newWorkload(name, 7, fullScale)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.guards) == 0 {
				t.Error("workload has no guard")
			}
			if res.Header.LayerRequests == 0 || res.Layer["server.handler_us"].Value <= 0 {
				t.Error("the layer pass timed no request")
			}
			if _, err := os.Stat(res.Trace); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestChecksCatchForcedFailures corrupts one expected digest and adds a
// never-sent write to the acknowledged list: the oracle and the durability
// check must each fail the run.
func TestChecksCatchForcedFailures(t *testing.T) {
	cfg := testConfig(t)
	cfg.trace = 0
	cfg.corrupt = true
	res, err := runWorkload(cfg, "hot_rw")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("run reported correct")
	}
	if res.Failed == 0 || !strings.Contains(res.Header.FirstError, "digest") {
		t.Errorf("oracle did not catch the corrupted digest: failed=%d first error %q", res.Failed, res.Header.FirstError)
	}
	durability := false
	for _, w := range res.Warnings {
		durability = durability || strings.Contains(w, "durability check failed")
	}
	if !durability {
		t.Errorf("durability check did not catch the missing write; warnings: %v", res.Warnings)
	}
}

// TestGuardsFire feeds each workload's guards the opposite of what it is
// built to produce.
func TestGuardsFire(t *testing.T) {
	bad := map[string]guardInput{
		"hot_rw":         {resultHitRatio: 0.1},
		"cold_analytic":  {resultHitRatio: 0.9},
		"similar_family": {resultHitRatio: 0.9, subplanReuse: 0.1},
		"stream_scan":    {rowMismatches: 1},
		"cross_engine":   {resultHitRatio: 0.9, migrationsMin: 0},
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 7, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range w.guards {
			if g.ok(bad[name]) {
				t.Errorf("%s: guard %q did not fire on %+v", name, g.what, bad[name])
			}
		}
	}
}

// TestEmitPrintsContractLine checks the result line: exactly four keys, and
// only the metrics the trace mode asks for.
func TestEmitPrintsContractLine(t *testing.T) {
	res := &runResult{Workload: "hot_rw", Correct: true, Attempted: 10, E2E: metricSet{}, Layer: metricSet{}}
	res.E2E.fill(endToEnd)
	res.Layer.fill(perLayer)
	for trace, want := range map[int]int{0: len(endToEnd), 1: len(perLayer), -1: len(endToEnd) + len(perLayer)} {
		var stdout, stderr bytes.Buffer
		if err := emit(res, trace, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("trace %d: result line keys = %v", trace, line)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != want {
			t.Errorf("trace %d: %d metrics on the result line, want %d", trace, len(metrics), want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--out", t.TempDir()},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--repeat", "0"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q", args, code, stdout.String())
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}
