package relational

import (
	"context"

	"polystorepp/internal/cast"
	"polystorepp/internal/partition"
)

// This file implements the partition-parallel hash-join build and probe.
//
// Build: the materialized build side is split into fixed contiguous row
// ranges; one task per range hashes its rows into per-(partition, shard)
// buckets, where the shard is chosen by the key hash (radix-style). A second
// fan-out — one task per shard — merges the per-partition buckets of that
// shard in ascending partition order. No two tasks ever write the same map,
// so there is no locking, and because partitions are contiguous ascending
// row ranges merged in order, every key's row list comes out in ascending
// row order — exactly what the sequential single-map build produces.
//
// Probe: the probe side (when its child can surrender a bulk batch) is split
// into contiguous row ranges; one task per range computes its matched (left
// row, build row) pairs as two selection vectors, and both sides are then
// gathered once, in partition order (takeParts) — the same order-preserving
// discipline parallel.go uses — so the output equals the sequential
// streaming probe's concatenated batches row for row.

// joinTable is a hash table from join key to build-side row indices, sharded
// by key hash so parallel builds never contend (one shard is a plain map).
// Keys are typed: the int64 values when both sides' key columns are
// Int64/Timestamp, the strings when both are String, and otherwise each
// side's cast.AppendKey rendering — the join's original key — so an int64 5
// still meets a float64 5.
type joinTable struct {
	ints     []map[int64][]int32
	strs     []map[string][]int32
	rendered bool // strs is keyed by AppendKey renderings
}

// hashKey hashes a string key with FNV-1a for shard selection, inlined so
// the per-row build/probe hot loops pay no hash-state or []byte conversion
// allocations.
func hashKey(key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// hashInt spreads an int64 key over the shards (Fibonacci hashing).
func hashInt(key int64) uint64 { return (uint64(key) * 0x9E3779B97F4A7C15) >> 32 }

// strKey reads the table's string key of column ci of b.
func (t *joinTable) strKey(b *cast.Batch, ci int) func(r int) string {
	if t.rendered {
		cols := []int{ci}
		return func(r int) string { return string(b.AppendKey(nil, r, cols)) }
	}
	keys, _ := b.Strings(ci)
	return func(r int) string { return keys[r] }
}

// buildJoinTable indexes build rows by the key column ci, keyed to meet a
// probe column of type probe. parts <= 0 picks the fan-out automatically
// from the input size; 1 forces the sequential single-shard build.
func buildJoinTable(ctx context.Context, build *cast.Batch, ci int, probe cast.Type, parts int) (*joinTable, error) {
	t := &joinTable{}
	var err error
	intKey := func(t cast.Type) bool { return t == cast.Int64 || t == cast.Timestamp }
	if bt := build.Schema().Col(ci).Type; intKey(bt) && intKey(probe) {
		keys, _ := build.Ints(ci)
		t.ints, err = buildShards(ctx, build.Rows(), parts, func(r int) int64 { return keys[r] }, hashInt)
	} else {
		t.rendered = bt != cast.String || probe != cast.String
		t.strs, err = buildShards(ctx, build.Rows(), parts, t.strKey(build, ci), hashKey)
	}
	return t, err
}

// buildShards hashes rows [0, n) into key-hash shards, every key's row list
// in ascending row order.
func buildShards[K comparable](ctx context.Context, n, parts int, key func(r int) K, hash func(K) uint64) ([]map[K][]int32, error) {
	pool, ranges := partition.Shared(), splitRows(n, parts)
	shardN := partition.Shards(len(ranges))
	mask := uint64(shardN - 1)
	// locals[p][s] holds partition p's rows that hash into shard s.
	locals := make([][]map[K][]int32, len(ranges))
	if err := pool.Do(ctx, len(ranges), func(p int) error {
		buckets := make([]map[K][]int32, shardN)
		for s := range buckets {
			buckets[s] = make(map[K][]int32, ranges[p].Len()/shardN)
		}
		for r := ranges[p].Lo; r < ranges[p].Hi; r++ {
			k := key(r)
			s := hash(k) & mask
			buckets[s][k] = append(buckets[s][k], int32(r))
		}
		locals[p] = buckets
		return nil
	}); err != nil || len(locals) == 1 {
		return locals[0], err
	}

	shards := make([]map[K][]int32, shardN)
	err := pool.Do(ctx, shardN, func(s int) error {
		merged := make(map[K][]int32)
		// Ascending partition order keeps each key's row list ascending.
		for p := range locals {
			for k, rows := range locals[p][s] {
				merged[k] = append(merged[k], rows...)
			}
		}
		shards[s] = merged
		return nil
	})
	return shards, err
}

// probeRange matches rows [lo, hi) of lb's key column li against the table.
// It returns the matched pairs as two selection vectors — left rows (lb's
// numbering) and build rows — in left-row order with each left row's matches
// in build-row order: the sequential emission order.
func (t *joinTable) probeRange(lb *cast.Batch, li, lo, hi int) (left, right []int32) {
	if t.ints != nil {
		keys, _ := lb.Ints(li)
		return probeShards(t.ints, lo, hi, func(r int) int64 { return keys[r] }, hashInt)
	}
	return probeShards(t.strs, lo, hi, t.strKey(lb, li), hashKey)
}

func probeShards[K comparable](shards []map[K][]int32, lo, hi int, key func(r int) K, hash func(K) uint64) (left, right []int32) {
	mask := uint64(len(shards) - 1)
	left, right = make([]int32, 0, hi-lo), make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		k, shard := key(r), shards[0]
		if mask != 0 {
			shard = shards[hash(k)&mask]
		}
		for _, rr := range shard[k] {
			left = append(left, int32(r))
			right = append(right, rr)
		}
	}
	return left, right
}

// parProbe probes in against table across partitions: each computes the
// matched pairs of its row range, then both sides are gathered once, in
// partition order, and zipped under schema — the wide-row materialization
// parallelizes too.
func parProbe(ctx context.Context, in *cast.Batch, li int, table *joinTable, rightMat *cast.Batch, schema cast.Schema, parts int) (*cast.Batch, error) {
	ranges := splitRows(in.Rows(), parts)
	lefts, rights := make([][]int32, len(ranges)), make([][]int32, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) error {
		lefts[i], rights[i] = table.probeRange(in, li, ranges[i].Lo, ranges[i].Hi)
		return nil
	}); err != nil {
		return nil, err
	}
	lg, err := takeParts(ctx, in, lefts)
	if err != nil {
		return nil, err
	}
	rg, err := takeParts(ctx, rightMat, rights)
	if err != nil {
		return nil, err
	}
	return cast.HConcat(schema, lg, rg)
}
