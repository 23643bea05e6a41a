// Durability surface: the store implements backend.Durable. It encodes and
// decodes its own journal records and snapshot section here, next to the
// shard locks that order them; the backend frames, fsyncs and files opaque
// bytes and never learns this layout.
package kvstore

import (
	"fmt"
	"io"

	"polystorepp/internal/cast"
)

// Journal record: op u8 | key str | shard version u64 | entry, with the
// entry as version i64 | written-at i64 | expires-at i64 | value blob. The
// shard version is the key's shard mutation counter immediately after the
// put. Counters are bumped under the shard lock, so records for one shard
// carry strictly increasing versions — Apply uses them as per-shard log
// sequence numbers to skip records a snapshot already covers.
//
// The op is always opPut. Op 2 was the delete of builds that had one, and
// the two time slots held their write time and TTL expiry: this build writes
// both slots as 0, ignores written-at, and refuses op 2 and a non-zero
// expires-at with cast.ErrCodec, since dropping either would bring a deleted
// or expired key back to life.
const opPut byte = 1

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

// record encodes one applied put.
func record(key string, shardVersion uint64, e entry) []byte {
	var enc cast.Encoder
	enc.Grow(1 + 4 + len(key) + 8 + 24 + 4 + len(e.value))
	enc.U8(opPut)
	enc.Str(key)
	enc.U64(shardVersion)
	encodeEntry(&enc, e)
	return enc.Bytes()
}

func encodeEntry(enc *cast.Encoder, e entry) {
	enc.I64(e.version)
	enc.I64(0) // written-at
	enc.I64(0) // expires-at
	enc.Blob(e.value)
}

// decodeEntry reads one entry; a decode error stays in d.
func decodeEntry(d *cast.Decoder) (entry, error) {
	version := d.I64()
	d.I64() // written-at
	if expires := d.I64(); expires != 0 && d.Err() == nil {
		return entry{}, fmt.Errorf("%w: entry expires at %d", cast.ErrCodec, expires)
	}
	return entry{version: version, value: d.Blob()}, nil
}

// Apply replays one journaled put during recovery. It returns false when
// the record is already covered by the shard's restored state (shard
// version not past the shard counter); otherwise the shard counter is
// pinned to the record's.
func (s *Store) Apply(rec []byte) (bool, error) {
	d := cast.DecodeBytes(rec)
	op, key, shardVersion := d.U8(), d.Str(), d.U64()
	if op != opPut && d.Err() == nil {
		return false, fmt.Errorf("kvstore: %q record: %w: op %d", s.name, cast.ErrCodec, op)
	}
	e, err := decodeEntry(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return false, fmt.Errorf("kvstore: %q record: %w", s.name, err)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if shardVersion <= sh.version {
		return false, nil
	}
	sh.data[key] = e
	sh.version = shardVersion
	return true, nil
}

// Snapshot writes the store's section: the shard count, then per shard its
// mutation counter and every key with its entry. Each key's entry sits in a
// list whose count is always 1: builds that kept superseded values wrote the
// whole list there, and Restore refuses any other count. Each shard is
// encoded under its read lock — so every (keys, counter) pair is a
// consistent cut, the property Apply needs to skip records the snapshot
// covers — and written after the lock is released, so a slow disk never
// stalls writers.
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
// shard counters to the persisted watermarks. A key listing other than one
// entry, or an entry with an expiry, fails with cast.ErrCodec. Call before
// SetJournal.
func (s *Store) Restore(r io.Reader) error {
	d := cast.NewDecoder(r)
	if n := d.U32(); d.Err() == nil && n != numShards {
		return fmt.Errorf("kvstore: restore %q: %d shards, want %d", s.name, n, numShards)
	}
	for i := 0; i < numShards && d.Err() == nil; i++ {
		version := d.U64()
		for k := d.U32(); k > 0 && d.Err() == nil; k-- {
			key := d.Str()
			if n := d.U32(); n != 1 && d.Err() == nil {
				return fmt.Errorf("kvstore: restore %q key %q: %w: %d entries, want 1", s.name, key, cast.ErrCodec, n)
			}
			e, err := decodeEntry(d)
			if err != nil {
				return fmt.Errorf("kvstore: restore %q key %q: %w", s.name, key, err)
			}
			if d.Err() != nil {
				break
			}
			sh := s.shardFor(key)
			sh.mu.Lock()
			sh.data[key] = e
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
// advanced further in memory (unacknowledged writes); recovery bumps once
// past the watermark so a post-restart version vector never re-presents a
// value whose results an external cache may still hold.
func (s *Store) BumpVersion() {
	sh := &s.shards[0]
	sh.mu.Lock()
	sh.version++
	sh.mu.Unlock()
}
