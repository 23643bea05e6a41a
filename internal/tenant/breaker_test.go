package tenant

import (
	"sync"
	"testing"
	"time"
)

func TestBreakerOpensOnFailureRate(t *testing.T) {
	b := new(Breaker)
	now := time.Now()
	// 10 successes + 9 failures: 19 samples, under breakerMinSamples —
	// stays closed.
	for i := 0; i < 10; i++ {
		b.Record(now, true)
	}
	for i := 0; i < 9; i++ {
		b.Record(now, false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v before breakerMinSamples, want closed", b.State())
	}
	// Twentieth sample is a failure: 10/20 >= 0.5 — trips.
	b.Record(now, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	ok, retry := b.Allow(now)
	if ok {
		t.Fatal("open breaker admitted")
	}
	if retry <= 0 || retry > breakerCooldown {
		t.Fatalf("retryAfter = %v", retry)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d", b.Opens())
	}
}

func TestBreakerSuccessesKeepItClosed(t *testing.T) {
	b := new(Breaker)
	now := time.Now()
	for i := 0; i < 100; i++ {
		b.Record(now.Add(time.Duration(i)*10*time.Millisecond), i%10 == 0) // 90% failures but...
	}
	// ...90% failure rate must open it, of course.
	if b.State() != Open {
		t.Fatal("heavy failures did not open breaker")
	}
	b2 := new(Breaker)
	for i := 0; i < 100; i++ {
		b2.Record(now.Add(time.Duration(i)*10*time.Millisecond), i%10 != 0) // 10% failures
	}
	if b2.State() != Closed {
		t.Fatal("10% failure rate opened breaker")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := new(Breaker)
	now := time.Now()
	for i := 0; i < breakerMinSamples; i++ {
		b.Record(now, false)
	}
	if b.State() != Open {
		t.Fatal("not open")
	}
	// Cooldown elapses: probes admitted, bounded by halfOpenProbes.
	later := now.Add(breakerCooldown + 100*time.Millisecond)
	for i := 0; i < halfOpenProbes; i++ {
		if ok, _ := b.Allow(later); !ok {
			t.Fatalf("probe %d rejected after cooldown", i+1)
		}
		if b.State() != HalfOpen {
			t.Fatalf("state = %v, want half-open", b.State())
		}
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("concurrent probe admitted beyond halfOpenProbes")
	}
	// A probe handed back without an outcome frees its slot and feeds
	// nothing: the next request takes it.
	b.Release()
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("released probe slot not reusable")
	}
	// Every probe succeeds: closed again, clean window.
	for i := 0; i < halfOpenProbes; i++ {
		b.Record(later, true)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v after recovery, want closed", b.State())
	}
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("closed breaker rejected")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := new(Breaker)
	now := time.Now()
	for i := 0; i < breakerMinSamples; i++ {
		b.Record(now, false)
	}
	later := now.Add(breakerCooldown + 100*time.Millisecond)
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("probe rejected")
	}
	b.Record(later, false)
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// Fresh cooldown from the reopen.
	if ok, _ := b.Allow(later.Add(500 * time.Millisecond)); ok {
		t.Fatal("admitted during fresh cooldown")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b := new(Breaker)
	now := time.Now()
	for i := 0; i < breakerMinSamples-1; i++ {
		b.Record(now, false)
	}
	// The window rolls past: old failures age out, so one more failure
	// does not trip.
	b.Record(now.Add(2*breakerWindow), false)
	if b.State() != Closed {
		t.Fatal("aged-out failures still tripped breaker")
	}
}

// TestBreakerForgetsFailuresOlderThanWindow: a steady trickle of requests
// must not stretch the window. Ten failures, then a success every 1.9 s,
// then ten more failures 17.1 s after the first: the first ten are past the
// 10 s window and must not count, so the breaker stays closed. A ring whose
// buckets each start at their first record holds them for 19 s, and trips.
func TestBreakerForgetsFailuresOlderThanWindow(t *testing.T) {
	b := new(Breaker)
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		b.Record(t0, false)
	}
	const step = 1900 * time.Millisecond
	for k := 1; k <= 8; k++ {
		b.Record(t0.Add(time.Duration(k)*step), true)
	}
	for i := 0; i < 10; i++ {
		b.Record(t0.Add(9*step), false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed: failures older than the window still counted", b.State())
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if ok, _ := b.Allow(time.Now()); !ok {
		t.Fatal("nil breaker must admit")
	}
	b.Record(time.Now(), false)
	b.Release()
	if b.State() != Closed || b.Opens() != 0 {
		t.Fatal("nil breaker state")
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := new(Breaker)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < 500; i++ {
				if ok, _ := b.Allow(now); ok {
					b.Record(now, (i+g)%3 != 0)
				}
			}
		}(g)
	}
	wg.Wait()
}
