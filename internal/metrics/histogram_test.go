package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refHistogram is the mutexed histogram the lock-free one replaced, kept as
// the reference its quantiles are checked against.
type refHistogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1, last is overflow
	n      int64
}

func newRefHistogram(bounds []float64) *refHistogram {
	return &refHistogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *refHistogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
}

func (h *refHistogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func TestHistogramConcurrentObserve(t *testing.T) {
	const goroutines, per = 8, 50_000
	h := NewHistogram([]float64{1, 2, 4, 8})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 10)) // 9 lands in overflow
			}
		}()
	}
	wg.Wait()
	n, sum := h.Snapshot()
	var buckets int64
	for i := range h.buckets {
		buckets += h.buckets[i].Load()
	}
	// Integer-valued floats add exactly in any order, so the sum is exact.
	if want := float64(goroutines * per / 10 * 45); n != goroutines*per || buckets != n || sum != want {
		t.Fatalf("count=%d buckets=%d sum=%g, want %d / %d / %g", n, buckets, sum, goroutines*per, goroutines*per, want)
	}
}

func TestHistogramQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	qs := []float64{0, .5, .95, .99, 1}
	for trial := 0; trial < 2000; trial++ {
		bounds := make([]float64, 1+rng.Intn(12))
		for i := range bounds {
			bounds[i] = float64(rng.Intn(50)) // duplicates allowed: ascending, not strictly
		}
		sort.Float64s(bounds)
		last := bounds[len(bounds)-1]
		values := make([]float64, rng.Intn(40)) // 0 = the empty case
		shape := rng.Intn(4)
		for i := range values {
			switch shape {
			case 0: // every value past the last bound
				values[i] = last + 1 + float64(rng.Intn(10))
			case 1: // every value exactly on a bound
				values[i] = bounds[rng.Intn(len(bounds))]
			default:
				values[i] = rng.Float64()*60 - 5
			}
		}
		h, ref := NewHistogram(bounds), newRefHistogram(bounds)
		for _, v := range values {
			h.Observe(v)
			ref.Observe(v)
		}
		for _, q := range qs {
			if got, want := h.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("bounds=%v values=%v: Quantile(%g) = %g, reference %g", bounds, values, q, got, want)
			}
		}
	}
}
