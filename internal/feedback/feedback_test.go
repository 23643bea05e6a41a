package feedback

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func key(fp string) Key { return Key{Engine: "db", Op: "Filter", FP: fp} }

// TestEWMAConvergence: a key fed a constant observation converges to it,
// and a step change re-converges — the smoothing follows the workload
// instead of averaging over all history.
func TestEWMAConvergence(t *testing.T) {
	s := New(Config{})
	k := key("abc")
	for i := 0; i < 50; i++ {
		s.Observe(k, Obs{RowsIn: 10, Wall: time.Millisecond})
	}
	st, ok := s.Lookup(k)
	if !ok {
		t.Fatal("key missing after observations")
	}
	if math.Abs(st.RowsIn-10) > 0.1 {
		t.Fatalf("EWMA did not converge to constant input: rowsIn=%.2f", st.RowsIn)
	}
	if math.Abs(st.WallSeconds-0.001) > 0.0001 {
		t.Fatalf("wall EWMA = %.6f, want ~0.001", st.WallSeconds)
	}
	// Step change: the workload's input cardinality grows 100x; the EWMA
	// must track it within a few dozen observations.
	for i := 0; i < 50; i++ {
		s.Observe(k, Obs{RowsIn: 1000, Wall: time.Millisecond})
	}
	st, _ = s.Lookup(k)
	if math.Abs(st.RowsIn-1000) > 1 {
		t.Fatalf("EWMA did not re-converge after step change: rowsIn=%.2f", st.RowsIn)
	}
	if st.Samples != 100 {
		t.Fatalf("samples = %d, want 100", st.Samples)
	}
}

// TestConfidenceThreshold: Confident withholds entries until the sample
// count clears the configured threshold.
func TestConfidenceThreshold(t *testing.T) {
	s := New(Config{ConfidenceSamples: 3})
	k := key("fp1")
	for i := 0; i < 2; i++ {
		s.Observe(k, Obs{RowsIn: 100})
		if _, ok := s.Confident(k); ok {
			t.Fatalf("confident after %d samples, threshold 3", i+1)
		}
	}
	s.Observe(k, Obs{RowsIn: 100})
	if _, ok := s.Confident(k); !ok {
		t.Fatal("not confident after 3 samples")
	}
}

// TestEpochAgingEvictsStaleKeys: keys a workload stops touching age out
// after MaxIdleEpochs; keys still observed survive every sweep.
func TestEpochAgingEvictsStaleKeys(t *testing.T) {
	s := New(Config{MaxIdleEpochs: 2})
	stale, live := key("stale"), key("live")
	s.Observe(stale, Obs{RowsIn: 10})
	s.Observe(live, Obs{RowsIn: 10})
	for i := 0; i < 5; i++ {
		s.Advance()
		s.Observe(live, Obs{RowsIn: 10}) // keeps refreshing its epoch
	}
	if _, ok := s.Lookup(stale); ok {
		t.Fatal("stale key survived 5 epochs with MaxIdleEpochs=2")
	}
	if _, ok := s.Lookup(live); !ok {
		t.Fatal("live key evicted despite being observed every epoch")
	}
	if ev := s.Stats().Evictions; ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
	// The aggregate (engine, op, "") key is refreshed by every observation,
	// so it must survive too.
	if _, ok := s.Lookup(Key{Engine: "db", Op: "Filter"}); !ok {
		t.Fatal("aggregate key evicted")
	}
}

// TestBoundedUnderManyFingerprints: 10k distinct fingerprints against an
// 8192-key budget must stay within the bound (overflow evicts, never
// grows), and the store keeps serving lookups for recent keys.
func TestBoundedUnderManyFingerprints(t *testing.T) {
	cfg := Config{MaxKeys: 1024}
	s := New(cfg)
	for i := 0; i < 10000; i++ {
		s.Observe(key(fmt.Sprintf("fp-%05d", i)), Obs{RowsIn: int64(i)})
	}
	st := s.Stats()
	if st.Keys > cfg.MaxKeys {
		t.Fatalf("store holds %d keys, budget %d", st.Keys, cfg.MaxKeys)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 10k inserts into a 1024-key budget")
	}
	if st.Samples != 20000 { // keyed + aggregate per Observe
		t.Fatalf("samples = %d, want 20000", st.Samples)
	}
	// The most recent key must still be resident: eviction targets the
	// stalest entry, not arbitrary ones.
	if _, ok := s.Lookup(key("fp-09999")); !ok {
		t.Fatal("most recent fingerprint evicted")
	}
}

// TestConcurrentIngest: 16 goroutines hammer overlapping keys; run under
// -race this is the data-race check, and the totals must balance.
func TestConcurrentIngest(t *testing.T) {
	s := New(Config{DecayEvery: 500}) // force epoch advances mid-flight
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := key(fmt.Sprintf("fp-%d", i%37))
				s.Observe(k, Obs{RowsIn: 100, Wall: time.Microsecond})
				if i%13 == 0 {
					s.Lookup(k)
					s.Confident(k)
				}
				if i%97 == 0 {
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if want := int64(goroutines * perG * 2); st.Samples != want {
		t.Fatalf("samples = %d, want %d", st.Samples, want)
	}
	if st.Epoch == 0 {
		t.Fatal("epoch never advanced despite DecayEvery=500")
	}
	// Every key saw identical observations, so the EWMA must equal them.
	got, ok := s.Lookup(key("fp-0"))
	if !ok || math.Abs(got.RowsIn-100) > 0.5 {
		t.Fatalf("fp-0 after concurrent ingest: ok=%v rowsIn=%.2f", ok, got.RowsIn)
	}
}
