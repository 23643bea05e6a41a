package kvstore

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// value returns key's value as ScanPrefix reads it, and whether key is
// stored.
func value(s *Store, key string) (string, bool) {
	keys, values := s.ScanPrefix(key)
	for i, k := range keys {
		if k == key {
			return values[i], true
		}
	}
	return "", false
}

func TestPutGet(t *testing.T) {
	s := New("kv1")
	if s.Name() != "kv1" {
		t.Fatal("name")
	}
	v1 := s.Put("a", []byte("hello"))
	if v1 != 1 {
		t.Fatalf("version = %d", v1)
	}
	if got, ok := value(s, "a"); !ok || got != "hello" {
		t.Fatalf("value = %q, %t", got, ok)
	}
	if _, ok := value(s, "missing"); ok {
		t.Fatal("missing key scanned")
	}
}

func TestVersioning(t *testing.T) {
	s := New("kv")
	s.Put("k", []byte("v1"))
	v2 := s.Put("k", []byte("v2"))
	if v2 != 2 {
		t.Fatalf("second version = %d", v2)
	}
	if latest, _ := value(s, "k"); latest != "v2" {
		t.Fatalf("latest = %q", latest)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after two puts to one key", s.Len())
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New("kv")
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	if got, _ := value(s, "k"); got != "abc" {
		t.Fatal("Put aliases caller buffer")
	}
}

func TestScanPrefix(t *testing.T) {
	s := New("kv")
	s.Put("user:2", []byte("b"))
	s.Put("user:1", []byte("a"))
	s.Put("order:1", []byte("c"))
	keys, values := s.ScanPrefix("user:")
	if fmt.Sprint(keys, values) != "[user:1 user:2] [a b]" {
		t.Fatalf("ScanPrefix = %q, %q", keys, values)
	}
}

// TestScanPrefixIsOneCut: a writer puts its k-th value, k, under key A and
// then under key B, with A in the first shard and B in the last. Any state
// of the store has A at least at B's value, so a scan that is one cut of it
// never reads B ahead of A. Sweeping the shards one lock at a time reads A
// early and B late, and shows it.
func TestScanPrefixIsOneCut(t *testing.T) {
	s := New("kv")
	keyIn := func(shard int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("k/%d", i); s.shardFor(k) == &s.shards[shard] {
				return k
			}
		}
	}
	a, b := keyIn(0), keyIn(numShards-1)
	for i := 0; i < 1600; i++ { // filler the scan walks past between A and B
		s.Put(fmt.Sprintf("z/%d", i), nil)
	}
	const puts = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < puts; k++ {
			s.Put(a, []byte(strconv.Itoa(k)))
			s.Put(b, []byte(strconv.Itoa(k)))
		}
	}()
	for scans := 0; ; scans++ {
		select {
		case <-done:
			t.Logf("%d scans", scans)
			return
		default:
		}
		keys, values := s.ScanPrefix("k/")
		got := map[string]int{}
		for i, k := range keys {
			got[k], _ = strconv.Atoi(values[i])
		}
		if got[a] < got[b] {
			<-done
			t.Fatalf("scan %d: A = %d, B = %d, a state the store never held", scans, got[a], got[b])
		}
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
				if got, ok := value(s, key); !ok || got != string([]byte{byte(j)}) {
					t.Errorf("value(%s) = %q, %t after put %d", key, got, ok, j)
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
