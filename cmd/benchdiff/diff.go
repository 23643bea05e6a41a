package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Result is the recorded performance of one benchmark: the best run across
// repetitions. ReqPerSec is 0 when the benchmark reports no req/s metric.
// Mem says the run carried -benchmem columns (or b.ReportAllocs), so
// BytesPerOp and AllocsPerOp are measurements — a recorded 0 is a real 0.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	ReqPerSec   float64 `json:"req_per_sec,omitempty"`
	Mem         bool    `json:"mem,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed BENCH_BASELINE.json schema.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// ParseBench extracts benchmark results from `go test -bench` output,
// keeping the best run per benchmark across -count repetitions: minimum
// ns/op, B/op and allocs/op, maximum req/s. The GOMAXPROCS suffix (-8) is
// stripped so baselines recorded on different machines still key the same
// benchmarks.
func ParseBench(out string) map[string]Result {
	results := make(map[string]Result)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		// BenchmarkName-8  1234  56.7 ns/op  890 req/s  12 p99-us  64 B/op  2 allocs/op
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r Result
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
				ok = true
			case "req/s":
				r.ReqPerSec = v
			case "B/op":
				r.BytesPerOp, r.Mem = v, true
			case "allocs/op":
				r.AllocsPerOp, r.Mem = v, true
			}
		}
		if !ok {
			continue
		}
		if prev, seen := results[name]; seen {
			if r.NsPerOp > prev.NsPerOp {
				r.NsPerOp = prev.NsPerOp
			}
			if r.ReqPerSec < prev.ReqPerSec {
				r.ReqPerSec = prev.ReqPerSec
			}
			if prev.Mem && r.Mem {
				r.BytesPerOp = min(r.BytesPerOp, prev.BytesPerOp)
				r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
			}
		}
		results[name] = r
	}
	return results
}

// Compare checks every baseline benchmark against the new results and
// returns a human-readable report plus whether the gate failed. Throughput
// (req/s, higher is better) is compared when both sides report it; ns/op
// (lower is better) otherwise. Beside it, a baseline recorded with -benchmem
// gates B/op and allocs/op growth by the same percentage — from a recorded
// 0, any growth fails — and a run without those columns fails rather than
// passing unmeasured. New benchmarks absent from the baseline are reported
// but never fail; baseline benchmarks absent from the results fail.
func Compare(base, got map[string]Result, maxDropPct float64) (string, bool) {
	var sb strings.Builder
	failed := false
	// gate reports one metric that got worse by pct percent.
	gate := func(name, unit string, b, g, pct float64) {
		status := "ok  "
		if pct > maxDropPct {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(&sb, "%s %s: %.0f -> %.0f %s (%+.1f%% vs baseline, limit %.0f%%)\n", status, name, b, g, unit, -pct, maxDropPct)
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fmt.Fprintf(&sb, "FAIL %s: missing from bench output (bad -bench regexp?)\n", name)
			failed = true
			continue
		}
		switch {
		case b.ReqPerSec > 0 && g.ReqPerSec > 0:
			gate(name, "req/s", b.ReqPerSec, g.ReqPerSec, (b.ReqPerSec-g.ReqPerSec)/b.ReqPerSec*100)
		case b.NsPerOp > 0:
			gate(name, "ns/op", b.NsPerOp, g.NsPerOp, growth(b.NsPerOp, g.NsPerOp))
		default:
			fmt.Fprintf(&sb, "SKIP %s: baseline has no comparable metric\n", name)
		}
		switch {
		case b.Mem && g.Mem:
			gate(name, "B/op", b.BytesPerOp, g.BytesPerOp, growth(b.BytesPerOp, g.BytesPerOp))
			gate(name, "allocs/op", b.AllocsPerOp, g.AllocsPerOp, growth(b.AllocsPerOp, g.AllocsPerOp))
		case b.Mem:
			fmt.Fprintf(&sb, "FAIL %s: baseline records B/op and allocs/op but the run has none (missing -benchmem?)\n", name)
			failed = true
		}
	}
	for name := range got {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&sb, "new  %s: not in baseline (run -update to record)\n", name)
		}
	}
	return sb.String(), failed
}

// growth is how much a lower-is-better metric rose from b to g, in percent;
// from a measured 0, any rise is unbounded.
func growth(b, g float64) float64 {
	switch {
	case b > 0:
		return (g - b) / b * 100
	case g > 0:
		return math.Inf(1)
	}
	return 0
}
