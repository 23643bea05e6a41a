// Durability surface: the store implements backend.Durable. It encodes and
// decodes its own journal records and snapshot section here, next to the
// shard locks that order them; the backend frames, fsyncs and files opaque
// bytes and never learns this layout.
package kvstore

import (
	"fmt"
	"io"
	"time"

	"polystorepp/internal/cast"
)

// Journal record: op u8 | key str | shard version u64 | entry (puts only).
// The shard version is the key's shard mutation counter immediately after
// the apply. Counters are bumped under the shard lock, so records for one
// shard carry strictly increasing versions — Apply uses them as per-shard
// log sequence numbers to skip records a snapshot already covers.
const (
	opPut byte = iota + 1
	opDelete
)

// SetJournal installs (or, with nil, removes) the mutation journal. fn
// receives one encoded record per applied mutation while the key's shard
// lock is held, so it must be fast and must not call back into the store.
// Install it after any bulk load or recovery so seed data is captured by
// snapshots rather than re-journaled.
func (s *Store) SetJournal(fn func(record []byte)) {
	if fn == nil {
		s.journal.Store(nil)
		return
	}
	s.journal.Store(&fn)
}

// record encodes one applied mutation; e is ignored for deletes.
func record(op byte, key string, shardVersion uint64, e Entry) []byte {
	var enc cast.Encoder
	enc.Grow(1 + 4 + len(key) + 8 + 24 + 4 + len(e.Value))
	enc.U8(op)
	enc.Str(key)
	enc.U64(shardVersion)
	if op == opPut {
		encodeEntry(&enc, e)
	}
	return enc.Bytes()
}

// An entry travels verbatim — version, write time and absolute expiry — so
// recovered reads are byte-identical to the pre-crash store.
func encodeEntry(enc *cast.Encoder, e Entry) {
	enc.I64(e.Version)
	enc.I64(unixNano(e.WrittenAt))
	enc.I64(unixNano(e.ExpiresAt))
	enc.Blob(e.Value)
}

func decodeEntry(d *cast.Decoder) Entry {
	return Entry{Version: d.I64(), WrittenAt: fromUnixNano(d.I64()),
		ExpiresAt: fromUnixNano(d.I64()), Value: d.Blob()}
}

// unixNano encodes a time with the zero value as 0 (time.Time{}.UnixNano()
// is a large negative sentinel that must not round-trip as a real instant).
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromUnixNano(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// Apply replays one journaled mutation during recovery. It returns false
// when the record is already covered by the shard's restored state (shard
// version not past the shard counter); otherwise the shard counter is
// pinned to the record's.
func (s *Store) Apply(rec []byte) (bool, error) {
	d := cast.DecodeBytes(rec)
	op, key, shardVersion := d.U8(), d.Str(), d.U64()
	var e Entry
	if op == opPut {
		e = decodeEntry(d)
	}
	if err := d.Finish(); err != nil {
		return false, fmt.Errorf("kvstore: %q record: %w", s.name, err)
	}
	if op != opPut && op != opDelete {
		return false, fmt.Errorf("kvstore: %q record: %w: op %d", s.name, cast.ErrCodec, op)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if shardVersion <= sh.version {
		return false, nil
	}
	if op == opDelete {
		delete(sh.data, key)
	} else {
		sh.put(key, e, s.now())
	}
	sh.version = shardVersion
	return true, nil
}

// Snapshot writes the store's section: the shard count, then per shard its
// mutation counter and every key with its entry. The entry is written as a
// list of one: stores that kept every superseded value wrote the whole list
// there, and Restore still reads their sections. Each shard is encoded
// under its read lock — so every (keys, counter) pair is a consistent cut,
// the property Apply needs to skip records the snapshot covers — and
// written after the lock is released, so a slow disk never stalls writers.
func (s *Store) Snapshot(w io.Writer) error {
	var enc cast.Encoder
	enc.U32(numShards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		enc.U64(sh.version)
		enc.U32(uint32(len(sh.data)))
		for k, e := range sh.data {
			enc.Str(k)
			enc.U32(1)
			encodeEntry(&enc, e)
		}
		sh.mu.RUnlock()
		if _, err := w.Write(enc.Bytes()); err != nil {
			return err
		}
		enc.Reset()
	}
	return nil
}

// Restore loads a Snapshot section into an empty store: entries verbatim,
// shard counters to the persisted watermarks, expiry watermarks recomputed
// from entries still in the future. Of a key's longer list, written by a
// store that kept superseded values, the last entry is the key's value.
// Call before SetJournal.
func (s *Store) Restore(r io.Reader) error {
	d := cast.NewDecoder(r)
	if n := d.U32(); d.Err() == nil && n != numShards {
		return fmt.Errorf("kvstore: restore %q: %d shards, want %d", s.name, n, numShards)
	}
	now := s.now()
	for i := 0; i < numShards && d.Err() == nil; i++ {
		version := d.U64()
		for k := d.U32(); k > 0 && d.Err() == nil; k-- {
			key := d.Str()
			n := d.U32()
			var e Entry
			for j := n; j > 0 && d.Err() == nil; j-- {
				e = decodeEntry(d)
			}
			if d.Err() != nil {
				break
			}
			if n == 0 {
				continue
			}
			sh := s.shardFor(key)
			sh.mu.Lock()
			sh.put(key, e, now)
			sh.mu.Unlock()
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.version = max(sh.version, version)
		sh.mu.Unlock()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("kvstore: restore %q: %w", s.name, err)
	}
	return nil
}

// BumpVersion advances the store's mutation count by one without any data
// change: the recovery epoch bump. After a crash the persisted watermark is
// the version of the last durable write, but the pre-crash process may have
// advanced further in memory (unacknowledged writes, lazy TTL expiry bumps);
// recovery bumps once past the watermark so a post-restart version vector
// never re-presents a value whose results an external cache may still hold.
func (s *Store) BumpVersion() {
	sh := &s.shards[0]
	sh.mu.Lock()
	sh.version++
	sh.mu.Unlock()
}
