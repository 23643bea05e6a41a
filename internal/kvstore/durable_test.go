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
	e, err := many.GetEntry("k")
	if err != nil || e.Version != 1000 {
		t.Fatalf("entry version = %d, %v; want 1000", e.Version, err)
	}
}

// TestRestoreMultiEntrySnapshot: a section that lists several entries under
// one key — the layout of stores that kept every superseded value — restores
// as its last entry, and the key's version keeps counting from there.
func TestRestoreMultiEntrySnapshot(t *testing.T) {
	var enc cast.Encoder
	enc.U32(numShards)
	for i := 0; i < numShards; i++ {
		enc.U64(0)
		if i > 0 {
			enc.U32(0)
			continue
		}
		enc.U32(1)
		enc.Str("k")
		enc.U32(3)
		for v, val := range []string{"v1", "v2", "v3"} {
			encodeEntry(&enc, Entry{Value: []byte(val), Version: int64(v + 1)})
		}
	}
	s := New("kv")
	if err := s.Restore(bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "v3" {
		t.Fatalf("restored value = %q, %v; want v3", got, err)
	}
	if ver := s.Put("k", []byte("v4")); ver != 4 {
		t.Fatalf("put after restore = version %d, want 4", ver)
	}
}
