package kvstore

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzApply feeds arbitrary bytes to the recovery path, seeded from records
// a live store journaled, one of them cut short and one with a byte past
// its end. Apply must never panic, never allocate beyond a multiple of the
// record's own size whatever lengths it claims, and leave the store's
// version unchanged when it reports an error.
func FuzzApply(f *testing.F) {
	var last []byte
	src := New("kv")
	src.SetJournal(func(record []byte) {
		last = append([]byte(nil), record...)
		f.Add(last)
	})
	src.Put("k1", []byte("value"))
	src.Put("k2", []byte("other"))
	src.Put("k1", nil)
	src.SetJournal(nil)
	f.Add(last[:len(last)-1])
	f.Add(append(last, 0))

	f.Fuzz(func(t *testing.T, record []byte) {
		s := New("kv")
		s.Put("k1", []byte("present"))
		before := s.Version()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		applied, err := s.Apply(record)
		runtime.ReadMemStats(&m1)
		if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(16<<10+64*len(record)); got > budget {
			t.Fatalf("applying %d bytes allocated %d", len(record), got)
		}
		if err != nil && (applied || s.Version() != before) {
			t.Fatalf("failed Apply changed the store: applied=%t version %d -> %d (%v)", applied, before, s.Version(), err)
		}
		if err == nil && !applied && s.Version() != before {
			t.Fatalf("skipped record moved the version %d -> %d", before, s.Version())
		}
	})
}

// FuzzRestore feeds arbitrary bytes to the snapshot loader, seeded with a
// live store's Snapshot section, truncations of it, and the section with
// another shard count. Restore into an empty store must
// return an error or nil, never panic.
func FuzzRestore(f *testing.F) {
	src := New("kv")
	src.Put("k1", []byte("value"))
	src.Put("k2", []byte("other"))
	src.Put("k3", nil)
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	for cut := snap.Len(); cut >= 0; cut -= 1 + snap.Len()/16 {
		f.Add(snap.Bytes()[:cut])
	}
	f.Add(append([]byte{numShards + 1, 0, 0, 0}, snap.Bytes()[4:]...))

	f.Fuzz(func(t *testing.T, section []byte) {
		_ = New("kv").Restore(bytes.NewReader(section))
	})
}
