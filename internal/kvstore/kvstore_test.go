package kvstore

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPutGet(t *testing.T) {
	s := New("kv1")
	if s.Name() != "kv1" {
		t.Fatal("name")
	}
	v1 := s.Put("a", []byte("hello"))
	if v1 != 1 {
		t.Fatalf("version = %d", v1)
	}
	got, err := s.Get("a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestVersioning(t *testing.T) {
	s := New("kv")
	s.Put("k", []byte("v1"))
	v2 := s.Put("k", []byte("v2"))
	if v2 != 2 {
		t.Fatalf("second version = %d", v2)
	}
	latest, err := s.Get("k")
	if err != nil || string(latest) != "v2" {
		t.Fatalf("latest = %q %v", latest, err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New("kv")
	s.Put("k", []byte("abc"))
	got, _ := s.Get("k")
	got[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("Get aliases internal storage")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New("kv")
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("Put aliases caller buffer")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := New("kv", WithClock(clock))
	s.PutTTL("k", []byte("v"), 10*time.Second)
	if _, err := s.Get("k"); err != nil {
		t.Fatalf("before expiry: %v", err)
	}
	now = now.Add(11 * time.Second)
	if _, err := s.Get("k"); !errors.Is(err, ErrExpired) {
		t.Fatalf("after expiry: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len counts expired key: %d", s.Len())
	}
}

func TestVersionAdvancesOnTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New("kv", WithClock(func() time.Time { return now }))
	s.Put("stable", []byte("v"))
	s.PutTTL("short", []byte("v"), 5*time.Second)
	s.PutTTL("long", []byte("v"), 60*time.Second)

	v0 := s.Version()
	if s.Version() != v0 {
		t.Fatal("version moved without mutation or expiry")
	}

	// Crossing the first expiry watermark is a visibility change: result
	// caches keyed on the version must be invalidated exactly once.
	now = now.Add(6 * time.Second)
	v1 := s.Version()
	if v1 <= v0 {
		t.Fatalf("version did not advance past TTL expiry: %d -> %d", v0, v1)
	}
	if s.Version() != v1 {
		t.Fatal("version kept moving after one expiry")
	}

	// The second watermark ("long") still fires later.
	now = now.Add(60 * time.Second)
	if v2 := s.Version(); v2 <= v1 {
		t.Fatalf("version did not advance past second expiry: %d -> %d", v1, v2)
	}
}

// TestSupersededTTLDoesNotMoveVersion: once a put replaces a TTL entry, that
// entry's expiry changes nothing a read sees, so crossing it must not bump
// the version (and invalidate every cached result over the store).
func TestSupersededTTLDoesNotMoveVersion(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New("kv", WithClock(func() time.Time { return now }))
	s.PutTTL("k", []byte("old"), 10*time.Second)
	s.Put("k", []byte("new"))
	v0 := s.Version()
	now = now.Add(time.Minute)
	if got := s.Version(); got != v0 {
		t.Fatalf("superseded entry's expiry moved the version %d -> %d", v0, got)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "new" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDelete(t *testing.T) {
	s := New("kv")
	s.Put("k", []byte("v"))
	s.Delete("k")
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	s.Delete("never-existed") // no-op
}

func TestScanPrefix(t *testing.T) {
	now := time.Unix(0, 0)
	s := New("kv", WithClock(func() time.Time { return now }))
	s.Put("user:1", []byte("a"))
	s.Put("user:2", []byte("b"))
	s.Put("order:1", []byte("c"))
	s.PutTTL("user:3", []byte("d"), time.Second)
	now = now.Add(2 * time.Second)
	got := s.ScanPrefix("user:")
	if len(got) != 2 || got[0] != "user:1" || got[1] != "user:2" {
		t.Fatalf("ScanPrefix = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New("kv")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := string(rune('a' + id))
			for j := 0; j < 200; j++ {
				s.Put(key, []byte{byte(j)})
				if _, err := s.Get(key); err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
				s.ScanPrefix("a")
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPutTTLNegativeIsDeadOnArrival(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New("kv", WithClock(func() time.Time { return now }))
	s.PutTTL("live", []byte("v"), time.Minute)

	// A negative TTL used to fall through the `ttl > 0` guard and store an
	// entry that never expires. It must instead store an already-expired
	// entry: dead to reads from the moment it lands.
	v0 := s.Version()
	if ver := s.PutTTL("dead", []byte("v"), -time.Second); ver == 0 {
		t.Fatal("negative-TTL put reported no write")
	}
	if _, err := s.Get("dead"); !errors.Is(err, ErrExpired) {
		t.Fatalf("negative-TTL entry readable: want ErrExpired, got %v", err)
	}
	if s.Version() <= v0 {
		t.Fatal("negative-TTL put did not bump the version")
	}

	// The dead entry's past ExpiresAt must not poison the shard's next-expiry
	// watermark: its visibility never changes again, so the version must hold
	// still until the genuinely-live entry expires.
	v1 := s.Version()
	now = now.Add(10 * time.Second)
	if got := s.Version(); got != v1 {
		t.Fatalf("version moved (%d -> %d) with only a dead-on-arrival entry in the window", v1, got)
	}
	now = now.Add(51 * time.Second) // past "live"'s expiry
	if got := s.Version(); got <= v1 {
		t.Fatal("live entry's expiry no longer advances the version")
	}

	// Zero TTL still means "never expires".
	s.PutTTL("forever", []byte("v"), 0)
	now = now.Add(24 * time.Hour)
	if _, err := s.Get("forever"); err != nil {
		t.Fatalf("zero-TTL entry expired: %v", err)
	}
}
