// Command benchdiff compares `go test -bench` output against a committed
// baseline and fails when throughput regresses beyond a threshold. The
// nightly CI bench-regression job runs it against BENCH_BASELINE.json:
//
//	go test ./internal/server/ -run '^$' \
//	  -bench 'BenchmarkServeConcurrent$|BenchmarkMixedReadWrite$' \
//	  -benchtime 2s -count 5 | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -max-drop 25 bench.txt
//
// Refresh the baseline after an intentional performance change with:
//
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -update bench.txt
//
// For each benchmark the best run across -count repetitions is kept (max
// req/s, min ns/op), so one noisy run cannot fail the gate; a regression
// must reproduce across every repetition to trip it. Throughput (req/s) is
// preferred when the benchmark reports it, ns/op otherwise. A baseline
// recorded with -benchmem (or b.ReportAllocs) also gates B/op and allocs/op
// growth by the same percentage, and from a recorded 0 any growth fails. A
// baseline benchmark missing from the new output is an error — a silently-skipped
// benchmark (bad -bench regexp) must fail the job, not pass it vacuously.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
		maxDrop      = flag.Float64("max-drop", 25, "max allowed throughput drop in percent")
		update       = flag.Bool("update", false, "rewrite the baseline from the bench output instead of comparing")
		attr         = flag.Bool("attr", false, "attribute wall-time growth to operators: diff two /stats (or op-stats) dumps instead of bench output")
	)
	flag.Parse()
	if *attr {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -attr before.json after.json")
			os.Exit(2)
		}
		runAttr(flag.Arg(0), flag.Arg(1))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-baseline file] [-max-drop pct] [-update] bench.txt")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	results := ParseBench(string(raw))
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results in %s — did the -bench regexp match anything?", flag.Arg(0)))
	}

	if *update {
		base := Baseline{
			Note:       "Best-of-count results from `go test -bench`; refresh with cmd/benchdiff -update (see README \"Performance\").",
			Benchmarks: results,
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s with %d benchmarks\n", *baselinePath, len(results))
		return
	}

	baseRaw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}
	report, failed := Compare(base.Benchmarks, results, *maxDrop)
	fmt.Print(report)
	if failed {
		os.Exit(1)
	}
}

// runAttr diffs two per-operator dumps and prints the attribution report,
// with a subplan-cache footer when either /stats dump shows cache activity.
// Diagnostic only — it never fails the build (see attr.go).
func runAttr(beforePath, afterPath string) {
	beforeRaw, before, err := readOpStats(beforePath)
	if err != nil {
		fatal(err)
	}
	afterRaw, after, err := readOpStats(afterPath)
	if err != nil {
		fatal(err)
	}
	fmt.Print(Attribute(before, after))
	spBefore, okB := ParseSubplanStats(beforeRaw)
	spAfter, okA := ParseSubplanStats(afterRaw)
	if okB || okA {
		fmt.Print(SubplanDelta(spBefore, spAfter))
	}
}

func readOpStats(path string) ([]byte, map[string]opSnap, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := ParseOpStats(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return raw, m, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
