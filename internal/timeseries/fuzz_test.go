package timeseries

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzApply feeds arbitrary bytes to the recovery path, seeded from records
// a live store journaled. Apply must never panic, never allocate beyond a
// multiple of the record's own size whatever lengths it claims, and leave
// the store's version unchanged when it reports an error.
func FuzzApply(f *testing.F) {
	src := New("ts")
	src.SetJournal(func(record []byte) { f.Add(append([]byte(nil), record...)) })
	for i, name := range []string{"cpu", "cpu", "mem"} {
		if err := src.Append(name, int64(i+1)*1000, float64(i)*0.5); err != nil {
			f.Fatal(err)
		}
	}
	src.SetJournal(nil)

	f.Fuzz(func(t *testing.T, record []byte) {
		s := New("ts")
		if err := s.Append("cpu", 1500, 1); err != nil {
			t.Fatal(err)
		}
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
// live store's Snapshot section and truncations of it. Restore into an
// empty store must return an error or nil, never panic.
func FuzzRestore(f *testing.F) {
	src := New("ts")
	for i, name := range []string{"cpu", "cpu", "mem", "cpu"} {
		if err := src.Append(name, int64(i+1)*1000, float64(i)*0.5); err != nil {
			f.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	for cut := snap.Len(); cut >= 0; cut -= 1 + snap.Len()/16 {
		f.Add(snap.Bytes()[:cut])
	}

	f.Fuzz(func(t *testing.T, section []byte) {
		_ = New("ts").Restore(bytes.NewReader(section))
	})
}
