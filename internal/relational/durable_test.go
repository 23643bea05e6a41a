package relational

import (
	"bytes"
	"errors"
	"testing"

	"polystorepp/internal/cast"
)

// TestHashIndexStateRefused pins what a directory written by a build that
// kept hash indexes meets: its journal record and its snapshot section are
// both refused with cast.ErrCodec and leave the store as it was — never
// skipped, which would restore a table short of an index it was acknowledged
// with.
func TestHashIndexStateRefused(t *testing.T) {
	t.Run("record", func(t *testing.T) {
		s, tbl := fuzzStore(t)
		before := s.Version()
		applied, err := s.Apply(record(opHashIndex, "events", tbl.Version()+1, nil, "kind"))
		if applied || !errors.Is(err, cast.ErrCodec) {
			t.Fatalf("Apply(opHashIndex) = %t, %v; want false, ErrCodec", applied, err)
		}
		if s.Version() != before {
			t.Fatalf("a refused record moved the version %d -> %d", before, s.Version())
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		_, tbl := fuzzStore(t)
		if err := tbl.Insert(int64(1), "a", true); err != nil {
			t.Fatal(err)
		}
		// The section layout of Store.Snapshot with one name in the reserved list.
		var enc cast.Encoder
		enc.U64(1)
		enc.U32(1)
		enc.Str("events")
		enc.U64(tbl.Version())
		enc.U32(0)
		enc.U32(1)
		enc.Str("kind")
		if err := cast.WriteBinary(&enc, tbl.Snapshot()); err != nil {
			t.Fatal(err)
		}
		s := NewStore("db")
		if err := s.Restore(bytes.NewReader(enc.Bytes())); !errors.Is(err, cast.ErrCodec) {
			t.Fatalf("Restore of a section naming a hash index: want ErrCodec, got %v", err)
		}
		if _, err := s.Table("events"); !errors.Is(err, ErrNoTable) {
			t.Fatalf("a refused section created its table: %v", err)
		}
	})
}
