// Package kvstore implements the key/value engine of the polystore (the
// Accumulo/Redis role in Figure 1: external events and session state).
// It keeps one entry per key — the latest put, numbered by how many puts the
// key has seen — with TTL expiry on a caller-supplied clock, and prefix
// scans. All operations are safe for concurrent use.
//
// Storage is hash-sharded: keys map onto fixed buckets, each with its own
// lock, mutation counter, and expiry watermark, so point reads and writes on
// different keys never contend on a store-wide mutex and prefix scans fan
// out one task per shard over the shared scan pool (internal/partition).
package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/partition"
)

// Sentinel errors.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrExpired  = errors.New("kvstore: key expired")
)

// Entry is a key's stored value: the latest put to the key, and Version,
// the number of puts the key has seen. Superseded values are not kept.
type Entry struct {
	Value     []byte
	Version   int64
	WrittenAt time.Time
	ExpiresAt time.Time // zero means never
}

// numShards is the fixed hash-shard count. A power of two so the bucket
// index is a mask; 16 buckets keeps per-shard maps dense while letting point
// operations on a many-core host proceed essentially uncontended.
const numShards = 16

// shard is one hash bucket: an independently locked slice of the keyspace.
type shard struct {
	mu   sync.RWMutex
	data map[string]Entry
	// version counts this shard's mutations (puts, deletes); distinct from
	// per-key entry versions. See Store.Version.
	version uint64
	// nextExpiry is the earliest ExpiresAt among this shard's TTL entries
	// (zero when none expire). TTL expiry changes read results without a
	// write, so the shard version bumps lazily when the clock passes it.
	nextExpiry time.Time
}

// Store is an in-memory KV store. The zero value is not usable; construct
// with New.
type Store struct {
	name   string
	now    func() time.Time
	shards [numShards]shard
	// journal, when installed, receives every applied mutation as an encoded
	// record (durability tap; see durable.go). Atomic so installation never
	// races hot-path puts.
	journal atomic.Pointer[func(record []byte)]
}

// Option configures a Store.
type Option func(*Store)

// WithClock substitutes the time source (tests, simulation).
func WithClock(now func() time.Time) Option {
	return func(s *Store) { s.now = now }
}

// New returns an empty store.
func New(name string, opts ...Option) *Store {
	s := &Store{name: name, now: time.Now}
	for i := range s.shards {
		s.shards[i].data = make(map[string]Entry)
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the store instance name.
func (s *Store) Name() string { return s.name }

// shardFor hashes key onto its bucket (FNV-1a).
func (s *Store) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&(numShards-1)]
}

// Put stores value under key with no expiry, returning the new version.
func (s *Store) Put(key string, value []byte) int64 {
	return s.PutTTL(key, value, 0)
}

// PutTTL stores value under key, expiring after ttl (0 = never).
func (s *Store) PutTTL(key string, value []byte, ttl time.Duration) int64 {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	own := make([]byte, len(value))
	copy(own, value)
	e := Entry{Value: own, Version: sh.data[key].Version + 1, WrittenAt: s.now()}
	if ttl != 0 {
		// A negative ttl stores an already-expired entry (dead on arrival,
		// reads get ErrExpired) rather than falling through to "never
		// expires".
		e.ExpiresAt = e.WrittenAt.Add(ttl)
	}
	sh.put(key, e, e.WrittenAt)
	sh.version++
	if j := s.journal.Load(); j != nil {
		(*j)(record(opPut, key, sh.version, e))
	}
	return e.Version
}

// Version returns the store-wide monotonic mutation count: the sum of the
// per-shard counters. The serving layer keys result caches on it, so writes
// invalidate cached results — and so does TTL expiry: a shard crossing an
// expiry watermark counts as one mutation, since reads change visibility
// without any write. Each per-shard counter is monotonic, so the sum is too.
//
// The common no-expiry case runs under shard read locks only: Version sits
// on the serving hot path (at least twice per request), and a store-wide
// write lock there would serialize all workers on this store.
func (s *Store) Version() uint64 {
	var v uint64
	for i := range s.shards {
		v += s.shards[i].versionNow(s.now)
	}
	return v
}

// versionNow returns the shard's mutation count, lazily charging one bump
// when the clock has passed the shard's expiry watermark.
func (sh *shard) versionNow(now func() time.Time) uint64 {
	sh.mu.RLock()
	v, expired := sh.version, !sh.nextExpiry.IsZero() && !now().Before(sh.nextExpiry)
	sh.mu.RUnlock()
	if !expired {
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check under the write lock: another caller may have advanced past
	// this watermark already.
	if !sh.nextExpiry.IsZero() && !now().Before(sh.nextExpiry) {
		sh.version++
		sh.advanceExpiryLocked(now())
	}
	return sh.version
}

// put makes e key's entry. When the entry it replaces held the shard's
// expiry watermark, the watermark is recomputed: a superseded value's expiry
// changes nothing a read sees, so it must not bump the version. Caller holds
// the shard lock.
func (sh *shard) put(key string, e Entry, now time.Time) {
	old, had := sh.data[key]
	sh.data[key] = e
	if had && !old.ExpiresAt.IsZero() && old.ExpiresAt.Equal(sh.nextExpiry) {
		sh.advanceExpiryLocked(now)
	}
	sh.noteExpiry(e, now)
}

// noteExpiry lowers the shard's expiry watermark to e's expiry when that is
// still in the future. Only future expiries feed the watermark: an entry
// already expired never changes visibility later, so the version bump of the
// mutation that stored it covers it. Caller holds the shard lock.
func (sh *shard) noteExpiry(e Entry, now time.Time) {
	if !e.ExpiresAt.IsZero() && now.Before(e.ExpiresAt) &&
		(sh.nextExpiry.IsZero() || e.ExpiresAt.Before(sh.nextExpiry)) {
		sh.nextExpiry = e.ExpiresAt
	}
}

// advanceExpiryLocked recomputes the shard's earliest future ExpiresAt. All
// entries already expired are covered by the version bump that triggered
// this scan.
func (sh *shard) advanceExpiryLocked(now time.Time) {
	sh.nextExpiry = time.Time{}
	for _, e := range sh.data {
		sh.noteExpiry(e, now)
	}
}

// Get returns key's live value.
func (s *Store) Get(key string) ([]byte, error) {
	e, err := s.GetEntry(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(e.Value))
	copy(out, e.Value)
	return out, nil
}

// GetEntry returns key's live entry.
func (s *Store) GetEntry(key string) (Entry, error) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.data[key]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if !e.ExpiresAt.IsZero() && !s.now().Before(e.ExpiresAt) {
		return Entry{}, fmt.Errorf("%w: %q", ErrExpired, key)
	}
	return e, nil
}

// Delete removes key. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.data[key]; ok {
		delete(sh.data, key)
		sh.version++
		if j := s.journal.Load(); j != nil {
			(*j)(record(opDelete, key, sh.version, Entry{}))
		}
	}
}

// Len returns the number of live keys (expired keys are excluded).
func (s *Store) Len() int {
	n := 0
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.data {
			if e.ExpiresAt.IsZero() || now.Before(e.ExpiresAt) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// ScanPrefix returns the live keys with the given prefix, sorted. Large
// stores fan out one task per shard over the shared scan pool and merge, so
// the sweep runs at memory bandwidth across cores while the result stays
// identical to a sequential one; small stores (the common session-state
// case) are swept inline, matching the other engines' "small inputs stay
// sequential" gate.
func (s *Store) ScanPrefix(prefix string) []string {
	now := s.now()
	keys := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		keys += len(s.shards[i].data)
		s.shards[i].mu.RUnlock()
	}
	var perShard [numShards][]string
	scan := func(i int) error {
		sh := &s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for k, e := range sh.data {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			if !e.ExpiresAt.IsZero() && !now.Before(e.ExpiresAt) {
				continue
			}
			perShard[i] = append(perShard[i], k)
		}
		return nil
	}
	if partition.Auto(keys, partition.Shared()) > 1 {
		_ = partition.Shared().Do(context.Background(), numShards, scan)
	} else {
		for i := 0; i < numShards; i++ {
			_ = scan(i)
		}
	}
	total := 0
	for _, ks := range perShard {
		total += len(ks)
	}
	out := make([]string, 0, total)
	for _, ks := range perShard {
		out = append(out, ks...)
	}
	sort.Strings(out)
	return out
}
