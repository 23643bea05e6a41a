package kvstore

import (
	"bytes"
	"testing"

	"polystorepp/internal/cast"
)

func snapshotLen(t *testing.T, s *Store) int {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// putRecord hand-encodes a put record.
func putRecord(key string, shardVersion uint64, version int64, value string) []byte {
	var enc cast.Encoder
	enc.Str(key)
	enc.U64(shardVersion)
	enc.I64(version)
	enc.Blob([]byte(value))
	return enc.Bytes()
}

// TestOverwritesKeepOneEntry: a key overwritten a thousand times holds one
// value, in memory and in every snapshot — the section is no larger than
// after a single put.
func TestOverwritesKeepOneEntry(t *testing.T) {
	once := New("kv")
	once.Put("k", []byte("value"))
	many := New("kv")
	for i := 0; i < 1000; i++ {
		many.Put("k", []byte("value"))
	}
	if got, want := snapshotLen(t, many), snapshotLen(t, once); got > want {
		t.Fatalf("snapshot after 1000 overwrites is %d bytes, after one put %d", got, want)
	}
	if v := many.shardFor("k").data["k"].version; v != 1000 {
		t.Fatalf("entry version = %d; want 1000", v)
	}
}

// TestPutRecordLayout pins the put record's bytes, and that a hand-encoded
// record applies.
func TestPutRecordLayout(t *testing.T) {
	if got, want := record("k", 7, entry{value: []byte("v"), version: 1}), putRecord("k", 7, 1, "v"); !bytes.Equal(got, want) {
		t.Fatalf("put record = %x, want %x", got, want)
	}
	s := New("kv")
	if applied, err := s.Apply(putRecord("k", 7, 1, "v")); !applied || err != nil {
		t.Fatalf("Apply of a put = %t, %v", applied, err)
	}
	if keys, values := s.ScanPrefix(""); len(keys) != 1 || keys[0] != "k" || values[0] != "v" || s.Version() != 7 {
		t.Fatalf("after Apply: %q %q at version %d", keys, values, s.Version())
	}
}
