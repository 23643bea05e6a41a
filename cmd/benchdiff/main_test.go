package main

import (
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: polystorepp/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServeConcurrent-8   	   50000	     52000 ns/op	         231.0 p99-us	         43.00 p50-us	     19000 req/s
BenchmarkServeConcurrent-8   	   48000	     55000 ns/op	         250.0 p99-us	         45.00 p50-us	     18000 req/s
BenchmarkMixedReadWrite-8    	   60000	     54000 ns/op	         1.000 hit-rate	     18400 req/s
BenchmarkWindowSequential    	     500	   2355777 ns/op
PASS
ok  	polystorepp/internal/server	12.3s
`

func TestParseBenchBestOfCount(t *testing.T) {
	got := ParseBench(sampleOut)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(got), got)
	}
	sc, ok := got["BenchmarkServeConcurrent"]
	if !ok {
		t.Fatal("BenchmarkServeConcurrent missing (suffix not stripped?)")
	}
	// Best of the two runs: min ns/op, max req/s.
	if sc.NsPerOp != 52000 || sc.ReqPerSec != 19000 {
		t.Fatalf("ServeConcurrent best-of = %+v, want ns=52000 req/s=19000", sc)
	}
	ws := got["BenchmarkWindowSequential"]
	if ws.NsPerOp != 2355777 || ws.ReqPerSec != 0 {
		t.Fatalf("WindowSequential = %+v", ws)
	}
}

func TestParseBenchEmptyOutput(t *testing.T) {
	// A -bench regexp matching nothing produces no Benchmark lines; the
	// caller must treat the empty map as a failure, never a pass.
	if got := ParseBench("PASS\nok  \tpkg\t0.01s\n"); len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from benchless output", len(got))
	}
}

func TestCompareThroughputGate(t *testing.T) {
	base := map[string]Result{
		"BenchmarkServeConcurrent": {NsPerOp: 52000, ReqPerSec: 19000},
		"BenchmarkMixedReadWrite":  {NsPerOp: 54000, ReqPerSec: 18400},
	}
	// Within the 25% budget: passes.
	got := map[string]Result{
		"BenchmarkServeConcurrent": {NsPerOp: 60000, ReqPerSec: 15000},
		"BenchmarkMixedReadWrite":  {NsPerOp: 54000, ReqPerSec: 18400},
	}
	report, failed := Compare(base, got, 25)
	if failed {
		t.Fatalf("21%% drop failed a 25%% gate:\n%s", report)
	}
	// Beyond the budget: fails and names the benchmark.
	got["BenchmarkServeConcurrent"] = Result{NsPerOp: 120000, ReqPerSec: 9000}
	report, failed = Compare(base, got, 25)
	if !failed || !strings.Contains(report, "FAIL BenchmarkServeConcurrent") {
		t.Fatalf("53%% drop passed a 25%% gate:\n%s", report)
	}
}

func TestCompareNsPerOpFallback(t *testing.T) {
	base := map[string]Result{"BenchmarkWindowSequential": {NsPerOp: 1000}}
	if report, failed := Compare(base, map[string]Result{"BenchmarkWindowSequential": {NsPerOp: 1200}}, 25); failed {
		t.Fatalf("20%% ns/op growth failed a 25%% gate:\n%s", report)
	}
	if report, failed := Compare(base, map[string]Result{"BenchmarkWindowSequential": {NsPerOp: 1500}}, 25); !failed {
		t.Fatalf("50%% ns/op growth passed a 25%% gate:\n%s", report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := map[string]Result{"BenchmarkServeConcurrent": {NsPerOp: 52000, ReqPerSec: 19000}}
	report, failed := Compare(base, map[string]Result{}, 25)
	if !failed || !strings.Contains(report, "missing from bench output") {
		t.Fatalf("missing benchmark did not fail the gate:\n%s", report)
	}
}

// memOut's FilterSequential lines are captured from `go test
// ./internal/relational -bench ... -benchmem -count 2`: the B/op and
// allocs/op columns follow ns/op. The last line has the same shape with a
// measured zero.
const memOut = `BenchmarkFilterSequential-2     	      20	   6393969 ns/op	 7137176 B/op	      33 allocs/op
BenchmarkFilterSequential-2     	      20	   7258240 ns/op	 7136830 B/op	      31 allocs/op
BenchmarkRunEmitSingleBatch-2   	 3000000	       335.4 ns/op	      24 B/op	       0 allocs/op
`

func TestParseBenchMem(t *testing.T) {
	got := ParseBench(memOut)
	want := Result{NsPerOp: 6393969, Mem: true, BytesPerOp: 7136830, AllocsPerOp: 31}
	if got["BenchmarkFilterSequential"] != want {
		t.Fatalf("FilterSequential = %+v, want best-of-count %+v", got["BenchmarkFilterSequential"], want)
	}
	if r := got["BenchmarkRunEmitSingleBatch"]; !r.Mem || r.AllocsPerOp != 0 || r.BytesPerOp != 24 {
		t.Fatalf("RunEmitSingleBatch = %+v, want a measured 0 allocs/op", r)
	}
	if r := ParseBench(sampleOut)["BenchmarkWindowSequential"]; r.Mem {
		t.Fatalf("a line without -benchmem columns parsed as measured: %+v", r)
	}
}

func TestCompareMemGate(t *testing.T) {
	base := ParseBench(memOut)
	got := ParseBench(memOut)
	if report, failed := Compare(base, got, 25); failed {
		t.Fatalf("identical run failed:\n%s", report)
	}
	// Time holds, allocations regress: the gate must name the metric.
	r := got["BenchmarkFilterSequential"]
	r.AllocsPerOp = 400_000
	got["BenchmarkFilterSequential"] = r
	report, failed := Compare(base, got, 25)
	if !failed || !strings.Contains(report, "FAIL BenchmarkFilterSequential: 31 -> 400000 allocs/op") {
		t.Fatalf("allocs/op regression passed:\n%s", report)
	}
	got["BenchmarkFilterSequential"] = base["BenchmarkFilterSequential"]
	// Any growth from a recorded zero fails.
	z := got["BenchmarkRunEmitSingleBatch"]
	z.AllocsPerOp = 1
	got["BenchmarkRunEmitSingleBatch"] = z
	if report, failed := Compare(base, got, 25); !failed || !strings.Contains(report, "0 -> 1 allocs/op") {
		t.Fatalf("0 -> 1 allocs/op passed:\n%s", report)
	}
	// A run that dropped -benchmem must not pass unmeasured.
	got["BenchmarkRunEmitSingleBatch"] = Result{NsPerOp: 300}
	if report, failed := Compare(base, got, 25); !failed || !strings.Contains(report, "missing -benchmem") {
		t.Fatalf("unmeasured run passed:\n%s", report)
	}
}
