package relational

import (
	"bytes"
	"runtime"
	"testing"

	"polystorepp/internal/cast"
)

func fuzzStore(tb testing.TB) (*Store, *Table) {
	s := NewStore("db")
	t, err := s.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.String},
		cast.Column{Name: "ok", Type: cast.Bool},
	))
	if err != nil {
		tb.Fatal(err)
	}
	return s, t
}

// FuzzApply feeds arbitrary bytes to the recovery path, seeded from records
// a live store journaled (table creation, single- and multi-row inserts, an
// index build) and the insert with an op no build writes. Apply must never panic, never allocate beyond a multiple of
// the record's own size whatever counts it claims, and leave the store's
// version unchanged when it reports an error.
func FuzzApply(f *testing.F) {
	var insert []byte
	seed := func(record []byte) {
		if record[0] == opInsert {
			insert = append([]byte(nil), record...)
		}
		f.Add(append([]byte(nil), record...))
	}
	src := NewStore("db")
	src.SetJournal(seed)
	if _, err := src.CreateTable("late", cast.MustSchema(cast.Column{Name: "v", Type: cast.Float64})); err != nil {
		f.Fatal(err)
	}
	src, tbl := fuzzStore(f)
	src.SetJournal(seed)
	if err := tbl.Insert(int64(1), "a", true); err != nil {
		f.Fatal(err)
	}
	two := cast.NewBatch(tbl.Schema(), 2)
	_ = two.AppendRow(int64(2), "b", false)
	_ = two.AppendRow(int64(3), "c", true)
	if err := tbl.InsertBatch(two); err != nil {
		f.Fatal(err)
	}
	if err := tbl.CreateBTreeIndex("id"); err != nil {
		f.Fatal(err)
	}
	src.SetJournal(nil)
	insert[0] = 0xff
	f.Add(insert)

	f.Fuzz(func(t *testing.T, record []byte) {
		s, _ := fuzzStore(t)
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
	src, tbl := fuzzStore(f)
	for i, kind := range []string{"a", "b", "a"} {
		if err := tbl.Insert(int64(i), kind, i%2 == 0); err != nil {
			f.Fatal(err)
		}
	}
	if err := tbl.CreateBTreeIndex("id"); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	for cut := snap.Len(); cut >= 0; cut -= 1 + snap.Len()/16 {
		f.Add(snap.Bytes()[:cut])
	}

	f.Fuzz(func(t *testing.T, section []byte) {
		_ = NewStore("db").Restore(bytes.NewReader(section))
	})
}
