package tenant

import (
	"sync"
	"testing"
	"time"
)

func testBreaker() *Breaker {
	return NewBreaker(BreakerConfig{
		Window:       time.Second,
		MinSamples:   10,
		FailureRatio: 0.5,
		Cooldown:     time.Second,
	})
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	b := testBreaker()
	now := time.Now()
	// 5 successes + 4 failures: 9 samples, under MinSamples — stays closed.
	for i := 0; i < 5; i++ {
		b.Record(now, true)
	}
	for i := 0; i < 4; i++ {
		b.Record(now, false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v before MinSamples, want closed", b.State())
	}
	// Tenth sample is a failure: 5/10 >= 0.5 — trips.
	b.Record(now, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	ok, retry := b.Allow(now)
	if ok {
		t.Fatal("open breaker admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v", retry)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d", b.Opens())
	}
}

func TestBreakerSuccessesKeepItClosed(t *testing.T) {
	b := testBreaker()
	now := time.Now()
	for i := 0; i < 100; i++ {
		b.Record(now.Add(time.Duration(i)*10*time.Millisecond), i%10 == 0) // 90% failures but...
	}
	// ...90% failure rate must open it, of course.
	if b.State() != Open {
		t.Fatal("heavy failures did not open breaker")
	}
	b2 := testBreaker()
	for i := 0; i < 100; i++ {
		b2.Record(now.Add(time.Duration(i)*10*time.Millisecond), i%10 != 0) // 10% failures
	}
	if b2.State() != Closed {
		t.Fatal("10% failure rate opened breaker")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := testBreaker()
	now := time.Now()
	for i := 0; i < 10; i++ {
		b.Record(now, false)
	}
	if b.State() != Open {
		t.Fatal("not open")
	}
	// Cooldown elapses: probes admitted, bounded by halfOpenProbes.
	later := now.Add(1100 * time.Millisecond)
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
	b := testBreaker()
	now := time.Now()
	for i := 0; i < 10; i++ {
		b.Record(now, false)
	}
	later := now.Add(1100 * time.Millisecond)
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
	b := testBreaker()
	now := time.Now()
	for i := 0; i < 9; i++ {
		b.Record(now, false)
	}
	// The window (1s) rolls past: old failures age out, so one more failure
	// does not trip.
	b.Record(now.Add(2*time.Second), false)
	if b.State() != Closed {
		t.Fatal("aged-out failures still tripped breaker")
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
	b := testBreaker()
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
