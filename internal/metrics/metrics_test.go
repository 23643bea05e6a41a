package metrics

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.SetMax(3.5)
	g.SetMax(1) // below the watermark: no change
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 5000} {
		h.Observe(v)
	}
	n, sum := h.Snapshot()
	if n != 5 || sum != 5056.2 {
		t.Fatalf("snapshot = %d, %g", n, sum)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %g, want 1", q)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("q50 = %g, want 10", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q100 (clamped) = %g, want 100", q)
	}
}

func TestHistogramValidation(t *testing.T) {
	for name, bounds := range map[string][]float64{"empty": nil, "descending": {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds should panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]float64{1})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16000 {
		t.Fatalf("gauge = %g, want 16000 (CAS Add lost updates)", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(3)
	g.SetMax(1) // lower: ignored
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.SetMax(float64(i*500 + j))
			}
		}(i)
	}
	wg.Wait()
	if got := g.Value(); got != 15*500+499 {
		t.Fatalf("high watermark = %g, want %d", got, 15*500+499)
	}
}
