package datagen

import (
	"math/rand"
	"testing"
)

// BenchmarkGenerateClinical2000 generates the clinical dataset at the size a
// served deployment boots with: 2 000 patients, 192 000 vitals points,
// ~4 000 admissions and ~3 000 stays, 2 000 notes. It is most of a boot's
// CPU. Appending the vitals a point at a time, with fmt-built names and
// notes concatenated word by word, it took 154-158 ms, 29.2 MB and
// 563 557 allocs/op on 2 cores; with one AppendPoints batch per series,
// 35-38 ms, 9.5 MB and 68 273 allocs/op.
func BenchmarkGenerateClinical2000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateClinical(rand.New(rand.NewSource(7)), 2000); err != nil {
			b.Fatal(err)
		}
	}
}
