// Command benchdiff attributes wall-time growth to operators: it diffs two
// /stats (or bare op-stats) dumps and ranks operators by the wall time they
// gained (see attr.go):
//
//	curl -s localhost:8080/stats > before.json
//	... run the workload / apply the change ...
//	curl -s localhost:8080/stats > after.json
//	go run ./cmd/benchdiff -attr before.json after.json
//
// Performance itself is compared per PR, parent against change, by the
// benchmark in bench/ (BENCHMARK.json); benchdiff answers the follow-up
// question of WHICH operator moved.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	attr := flag.Bool("attr", false, "attribute wall-time growth to operators: diff two /stats (or op-stats) dumps")
	flag.Parse()
	if !*attr || flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -attr before.json after.json")
		os.Exit(2)
	}
	runAttr(flag.Arg(0), flag.Arg(1))
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
