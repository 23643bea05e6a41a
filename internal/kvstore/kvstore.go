// Package kvstore implements the key/value engine of the polystore (the
// Accumulo/Redis role in Figure 1: external events a federated program
// reads). It keeps one entry per key — the latest put, numbered by how many
// puts the key has seen — and answers prefix scans. Keys never expire and
// are never deleted. All operations are safe for concurrent use.
//
// Storage is hash-sharded: keys map onto fixed buckets, each with its own
// lock and mutation counter, so puts on different keys never contend on a
// store-wide mutex. A prefix scan read-locks every bucket at once.
package kvstore

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// entry is a key's stored value: the latest put to the key, and version,
// the number of puts the key has seen. Superseded values are not kept.
type entry struct {
	value   []byte
	version int64
}

// numShards is the fixed hash-shard count. A power of two so the bucket
// index is a mask; 16 buckets keeps per-shard maps dense while letting puts
// on a many-core host proceed essentially uncontended.
const numShards = 16

// shard is one hash bucket: an independently locked slice of the keyspace.
type shard struct {
	mu   sync.RWMutex
	data map[string]entry
	// version counts this shard's puts; distinct from per-key entry
	// versions. See Store.Version.
	version uint64
}

// Store is an in-memory KV store. The zero value is not usable; construct
// with New.
type Store struct {
	name   string
	shards [numShards]shard
	// journal, when installed, receives every applied mutation as an encoded
	// record (durability tap; see durable.go). Atomic so installation never
	// races hot-path puts.
	journal atomic.Pointer[func(record []byte)]
}

// New returns an empty store.
func New(name string) *Store {
	s := &Store{name: name}
	for i := range s.shards {
		s.shards[i].data = make(map[string]entry)
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

// Put stores value under key, returning the key's new version.
func (s *Store) Put(key string, value []byte) int64 {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	own := make([]byte, len(value))
	copy(own, value)
	e := entry{value: own, version: sh.data[key].version + 1}
	sh.data[key] = e
	sh.version++
	if j := s.journal.Load(); j != nil {
		(*j)(record(key, sh.version, e))
	}
	return e.version
}

// Version returns the store-wide monotonic mutation count: the sum of the
// per-shard counters. The subplan cache keys on it, so writes invalidate
// cached results. Each per-shard counter is monotonic, so the sum
// is too. It takes shard read locks only: Version sits on the serving hot
// path (at least twice per request), and a store-wide write lock there would
// serialize all workers on this store.
func (s *Store) Version() uint64 {
	var v uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		v += sh.version
		sh.mu.RUnlock()
	}
	return v
}

// Len returns the number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.data)
		sh.mu.RUnlock()
	}
	return n
}

// ScanPrefix returns the keys with the given prefix, sorted, and values[i],
// the value of keys[i]. It holds every shard's read lock for the scan, taken
// in index order, so the scan is one cut of the store: it never returns a
// put without an earlier one. A writer takes one shard lock, so the order
// leaves no cycle to deadlock on.
func (s *Store) ScanPrefix(prefix string) (keys, values []string) {
	type pair struct{ key, value string }
	var found []pair
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	for i := range s.shards {
		for k, e := range s.shards[i].data {
			if strings.HasPrefix(k, prefix) {
				found = append(found, pair{k, string(e.value)})
			}
		}
	}
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	keys, values = make([]string, len(found)), make([]string, len(found))
	for i, p := range found {
		keys[i], values[i] = p.key, p.value
	}
	return keys, values
}
