package kvstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestShardedScanMatchesLinear cross-checks the per-shard prefix scan
// against a brute-force sweep of an independent model map.
func TestShardedScanMatchesLinear(t *testing.T) {
	s := New("kv")
	model := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("user/%03d", i%97)
		if i%3 == 0 {
			k = fmt.Sprintf("event/%03d", i)
		}
		v := fmt.Sprintf("v%d", i)
		s.Put(k, []byte(v))
		model[k] = v
	}
	for _, prefix := range []string{"user/", "event/", "", "missing/"} {
		var want []string
		for k := range model {
			if strings.HasPrefix(k, prefix) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		keys, values := s.ScanPrefix(prefix)
		if len(keys) != len(want) || len(values) != len(want) {
			t.Fatalf("prefix %q: %d keys and %d values, want %d", prefix, len(keys), len(values), len(want))
		}
		for i := range want {
			if keys[i] != want[i] || values[i] != model[want[i]] {
				t.Fatalf("prefix %q: pair %d = %q:%q, want %q:%q", prefix, i, keys[i], values[i], want[i], model[want[i]])
			}
		}
	}
}

// TestShardedVersionMonotonic hammers puts and version reads from many
// goroutines and checks the summed version never goes backwards.
func TestShardedVersionMonotonic(t *testing.T) {
	s := New("kv")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Put(fmt.Sprintf("w%d/%d", w, i%50), []byte("x"))
			}
		}(w)
	}
	last := uint64(0)
	for i := 0; i < 2000; i++ {
		v := s.Version()
		if v < last {
			t.Fatalf("version went backwards: %d -> %d", last, v)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}
