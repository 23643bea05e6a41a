// Command bench is the repository's benchmark: five serving workloads driven
// over loopback HTTP against one in-process deployment, end-to-end metrics a
// caller would see, and a layer pass that times every module from outside.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory explains the workloads, the metrics and how to read the trace.
//
//	go run ./bench --workload hot_rw --seed 7 --seconds 10 --trace 0
//	go run ./bench                       # every workload, both passes
//	go run ./bench -repeat 5             # agreement mode: spread per metric
//
// The last line on standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the run header and a table go to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// maxClients is the closed-loop client count: callers of an analytic service
// wait for their reply, and at sub-100us service times an in-process
// open-loop generator would measure the Go scheduler, not the server.
const maxClients = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 7, "seed of the dataset and the request stream")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: layer pass, per-layer metrics only; -1: both")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and print each metric's spread")
	outDir := fs.String("out", "bench/out", "directory for traces and scratch WAL directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive, -trace one of -1, 0, 1, and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace,
		clients: min(maxClients, runtime.NumCPU()), scale: fullScale, outDir: *outDir, warmupScale: 1,
	}

	code := 0
	runs := map[string][]*runResult{}
	for i := 0; i < *repeat; i++ {
		for _, name := range names {
			res, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			runs[name] = append(runs[name], res)
			if err := emit(res, cfg.trace, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	if *repeat > 1 {
		if !printAgreement(stderr, names, runs) {
			code = 1
		}
	}
	return code
}

// emit prints one run: header and table on stderr, the result object as one
// line on stdout.
func emit(res *runResult, trace int, stdout, stderr io.Writer) error {
	hdr, err := json.Marshal(res.Header)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "# %s\n", hdr)
	for _, w := range res.Warnings {
		fmt.Fprintf(stderr, "WARNING: %s\n", w)
	}
	if res.Header.FirstError != "" {
		fmt.Fprintf(stderr, "FAILED: %d of %d requests; first: %s\n", res.Failed, res.Attempted, res.Header.FirstError)
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metricSet{}}
	if trace != 1 {
		for k, v := range res.E2E {
			line.Metrics[k] = v
		}
	}
	if trace != 0 {
		for k, v := range res.Layer {
			line.Metrics[k] = v
		}
	}
	tw := tabwriter.NewWriter(stderr, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\tsamples\n")
	for _, name := range sortedNames(line.Metrics) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", res.Workload, name, line.Metrics[name].Value,
			line.Metrics[name].Unit, sampleNote(name, res.Header))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// sampleNote names the sample count behind a percentile metric.
func sampleNote(metric string, h header) string {
	switch metric {
	case "client.lat_p99_ms":
		return fmt.Sprintf("n=%d", h.Samples.Reads)
	case "client.lat_p50_ms", "client.lat_p95_ms":
		return fmt.Sprintf("n=%d (>=%d per slice, median of %d slices)", h.Samples.Reads, h.Samples.SliceReads, len(h.Samples.SliceP50))
	case "client.req_per_s", "client.rows_per_s":
		return fmt.Sprintf("median of %d slices", len(h.Samples.SliceRates))
	case "client.write_lat_p50_ms", "client.write_lat_p95_ms":
		return fmt.Sprintf("n=%d", h.Samples.Writes)
	case "client.ttfr_p50_ms":
		return fmt.Sprintf("n=%d", h.Samples.Streams)
	case "setup_s":
		return fmt.Sprintf("median of %d", len(h.SetupTimes))
	}
	if strings.HasSuffix(metric, "_us") && strings.Contains(metric, ".") {
		return fmt.Sprintf("layer pass, <=%d requests", h.LayerRequests)
	}
	return ""
}

// printAgreement prints, per workload and metric, the median, the quartiles
// and (max-min)/median over the repeated runs, and reports whether every
// end-to-end metric's quartile spread stayed within its bound.
func printAgreement(w io.Writer, names []string, runs map[string][]*runResult) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tq1\tq3\tiqr/median\t(max-min)/median\tbound\t\n")
	for _, name := range names {
		for _, def := range endToEnd {
			var vals []float64
			for _, r := range runs[name] {
				vals = append(vals, r.E2E[def.Name].Value)
			}
			if len(vals) < 2 {
				continue
			}
			sort.Float64s(vals)
			med := median(vals)
			q1, q3 := quartiles(vals)
			verdict := ""
			if def.Name != "setup_s" && (q3-q1)/med > def.Bound {
				verdict, ok = "SPREAD EXCEEDS BOUND", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.4f\t%.2f\t%s\n", name, def.Name, med, q1, q3,
				(q3-q1)/med, (vals[len(vals)-1]-vals[0])/med, def.Bound, verdict)
		}
	}
	_ = tw.Flush()
	return ok
}

// quartiles returns the first and third quartile of sorted by the exclusive
// method (what Python's statistics.quantiles(v, n=4) computes).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		i := int(pos)
		switch {
		case i < 1:
			return sorted[0]
		case i >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return at(0.25), at(0.75)
}

// commit names the source revision: the build's VCS stamp when there is one,
// else git's answer, else "unknown" (the pipeline runs from a plain checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
