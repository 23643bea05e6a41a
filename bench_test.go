package polystore

// The benchmark harness: one testing.B benchmark per experiment of
// internal/experiments (every figure scenario and quantitative claim of the
// paper, PAPER.md). Each benchmark regenerates its experiment table;
// `go test -bench=.` therefore reproduces the full evaluation.
// cmd/polybench prints the same tables for human reading.

import (
	"testing"

	"polystorepp/internal/experiments"
)

// benchScale keeps bench iterations fast; cmd/polybench accepts -scale for
// larger runs.
const benchScale = 1

func benchExperiment(b *testing.B, fn func(int) *experiments.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := fn(benchScale); len(tab.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

func BenchmarkE01Recommendation(b *testing.B) { benchExperiment(b, experiments.E01Recommendation) }
func BenchmarkE02Clinical(b *testing.B)       { benchExperiment(b, experiments.E02Clinical) }
func BenchmarkE03Snorkel(b *testing.B)        { benchExperiment(b, experiments.E03Snorkel) }
func BenchmarkE04CrossDBJoin(b *testing.B)    { benchExperiment(b, experiments.E04CrossDBJoin) }
func BenchmarkE05ScanOffload(b *testing.B)    { benchExperiment(b, experiments.E05ScanOffload) }
func BenchmarkE06Migration(b *testing.B)      { benchExperiment(b, experiments.E06Migration) }
func BenchmarkE07HeteroDFG(b *testing.B)      { benchExperiment(b, experiments.E07HeteroDFG) }
func BenchmarkE08OptLevels(b *testing.B)      { benchExperiment(b, experiments.E08OptLevels) }
func BenchmarkE09KMeans(b *testing.B)         { benchExperiment(b, experiments.E09KMeans) }
func BenchmarkE10ActiveLearningDSE(b *testing.B) {
	benchExperiment(b, experiments.E10ActiveLearningDSE)
}
func BenchmarkE11Operators(b *testing.B)      { benchExperiment(b, experiments.E11Operators) }
func BenchmarkE12AdapterOffload(b *testing.B) { benchExperiment(b, experiments.E12AdapterOffload) }
func BenchmarkE13Pipelining(b *testing.B)     { benchExperiment(b, experiments.E13Pipelining) }
func BenchmarkE14Models(b *testing.B)         { benchExperiment(b, experiments.E14Models) }
func BenchmarkE15WeightFormats(b *testing.B)  { benchExperiment(b, experiments.E15WeightFormats) }
