package kvstore

import (
	"bytes"
	"errors"
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

// putRecord hand-encodes a put record with the given time slots, in the
// layout every build has journaled.
func putRecord(key string, shardVersion uint64, writtenAt, expiresAt int64, value string) []byte {
	var enc cast.Encoder
	enc.U8(opPut)
	enc.Str(key)
	enc.U64(shardVersion)
	enc.I64(1)
	enc.I64(writtenAt)
	enc.I64(expiresAt)
	enc.Blob([]byte(value))
	return enc.Bytes()
}

// deleteRecord hand-encodes op 2, the delete record of builds that had one.
func deleteRecord(key string, shardVersion uint64) []byte {
	var enc cast.Encoder
	enc.U8(2)
	enc.Str(key)
	enc.U64(shardVersion)
	return enc.Bytes()
}

// sectionWith hand-encodes a snapshot section whose first shard, at shard
// version 5, lists key with one entry per expiresAt value; the other shards
// are empty.
func sectionWith(key string, expiresAt ...int64) []byte {
	var enc cast.Encoder
	enc.U32(numShards)
	enc.U64(5)
	enc.U32(1)
	enc.Str(key)
	enc.U32(uint32(len(expiresAt)))
	for v, exp := range expiresAt {
		enc.I64(int64(v + 1))
		enc.I64(1_700_000_000_000_000_000)
		enc.I64(exp)
		enc.Blob([]byte("v"))
	}
	for i := 1; i < numShards; i++ {
		enc.U64(0)
		enc.U32(0)
	}
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

// TestPutRecordLayout pins the put record's bytes: the layout every build
// has journaled, with both time slots written as 0. A record of a build
// that stamped its write time still applies, written-at ignored.
func TestPutRecordLayout(t *testing.T) {
	if got, want := record("k", 7, entry{value: []byte("v"), version: 1}), putRecord("k", 7, 0, 0, "v"); !bytes.Equal(got, want) {
		t.Fatalf("put record = %x, want %x", got, want)
	}
	s := New("kv")
	if applied, err := s.Apply(putRecord("k", 7, 1_700_000_000_000_000_000, 0, "v")); !applied || err != nil {
		t.Fatalf("Apply of a stamped put = %t, %v", applied, err)
	}
	if keys, values := s.ScanPrefix(""); len(keys) != 1 || keys[0] != "k" || values[0] != "v" || s.Version() != 7 {
		t.Fatalf("after Apply: %q %q at version %d", keys, values, s.Version())
	}
}

// TestDeletedAndExpiredStateRefused pins what a directory written by a
// build with deletes, TTL expiry or superseded values meets: each record
// and section is refused with cast.ErrCodec and moves no version. Decoding
// and dropping one instead would bring a deleted or expired key back.
func TestDeletedAndExpiredStateRefused(t *testing.T) {
	opTwoPut := putRecord("k1", 9, 0, 0, "v")
	opTwoPut[0] = 2
	for _, c := range []struct {
		name    string
		record  []byte
		section []byte
	}{
		{name: "delete record", record: deleteRecord("k1", 9)},
		{name: "op 2 with a put's body", record: opTwoPut},
		{name: "expiring put record", record: putRecord("k2", 9, 1_700_000_000_000_000_000, 1_700_000_060_000_000_000, "v")},
		{name: "expiring snapshot entry", section: sectionWith("k", 1_700_000_060_000_000_000)},
		{name: "three-entry key list", section: sectionWith("k", 0, 0, 0)},
		{name: "empty key list", section: sectionWith("k")},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New("kv")
			var err error
			if c.record != nil {
				s.Put("k1", []byte("present"))
				before := s.Version()
				var applied bool
				applied, err = s.Apply(c.record)
				if applied || s.Version() != before {
					t.Fatalf("refused record: applied = %t, version %d -> %d", applied, before, s.Version())
				}
			} else {
				err = s.Restore(bytes.NewReader(c.section))
				if s.Version() != 0 || s.Len() != 0 {
					t.Fatalf("refused section left version %d and %d keys", s.Version(), s.Len())
				}
			}
			if !errors.Is(err, cast.ErrCodec) {
				t.Fatalf("want cast.ErrCodec, got %v", err)
			}
		})
	}
	// The one-entry list the refusals are cut from restores.
	s := New("kv")
	if err := s.Restore(bytes.NewReader(sectionWith("k", 0))); err != nil || s.Len() != 1 || s.Version() != 5 {
		t.Fatalf("one-entry section: %v, %d keys at version %d", err, s.Len(), s.Version())
	}
}
