//go:build !race

package timeseries

import "testing"

// Allocation budgets live apart from the race runs: the race runtime
// allocates on its own account and would blur the counts.

// TestAppendAllocs: a single-point Append to an existing series allocates
// nothing but its journal record — what it allocated before AppendPoints
// existed, since /ingest appends through it.
func TestAppendAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		journal bool
		want    float64
	}{{"no journal", false, 0}, {"journal", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New("ts")
			if tc.journal {
				s.SetJournal(func([]byte) {})
			}
			ts := int64(0)
			if err := s.Append("m", ts, 1); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(5000, func() {
				ts++
				if err := s.Append("m", ts, 1); err != nil {
					t.Fatal(err)
				}
			}); got != tc.want {
				t.Fatalf("Append allocates %v per call, want %v", got, tc.want)
			}
		})
	}
}
