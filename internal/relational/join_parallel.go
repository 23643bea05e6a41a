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
// row, build row) pairs as two selections, and both sides are then taken
// once, in partition order (takeSels) — the same order-preserving
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
// It returns the matched pairs as two selections — left rows (lb's numbering)
// and build rows — in left-row order with each left row's matches in
// build-row order: the sequential emission order. Unlike a filter's, these
// lists may repeat a row and the build rows come in any order; a side is a
// run when the loop saw it be one.
func (t *joinTable) probeRange(lb *cast.Batch, li, lo, hi int) (left, right selection) {
	if t.ints != nil {
		keys, _ := lb.Ints(li)
		return probeShards(t.ints, lo, hi, func(r int) int64 { return keys[r] }, hashInt)
	}
	return probeShards(t.strs, lo, hi, t.strKey(lb, li), hashKey)
}

func probeShards[K comparable](shards []map[K][]int32, lo, hi int, key func(r int) K, hash func(K) uint64) (left, right selection) {
	mask := uint64(len(shards) - 1)
	// ls stays unlisted while every probe row has matched exactly once: the
	// left side is then the run [lo, r).
	var ls []int32
	rs, consecutive := make([]int32, 0, hi-lo), true
	for r := lo; r < hi; r++ {
		k, shard := key(r), shards[0]
		if mask != 0 {
			shard = shards[hash(k)&mask]
		}
		matches := shard[k]
		if ls == nil && len(matches) != 1 {
			ls = runOf(lo, r).list(make([]int32, 0, hi-lo))
		}
		for _, rr := range matches {
			if ls != nil {
				ls = append(ls, int32(r))
			}
			consecutive = consecutive && (len(rs) == 0 || rr == rs[len(rs)-1]+1)
			rs = append(rs, rr)
		}
	}
	left, right = runOf(lo, hi), selection{rows: rs}
	if ls != nil {
		left = selection{rows: ls}
	}
	if consecutive && len(rs) > 0 {
		right = runOf(int(rs[0]), int(rs[0])+len(rs))
	}
	return left, right
}

// parProbe probes in against table across partitions: each computes the
// matched pairs of its row range, then both sides are handed on as one
// selection each, in partition order, and zipped under schema. Neither side
// is gathered here: a consumer that reads three of the joined columns
// gathers three.
func parProbe(ctx context.Context, in *cast.Batch, li int, table *joinTable, rightMat *cast.Batch, schema cast.Schema, parts int) (*cast.Batch, error) {
	ranges := splitRows(in.Rows(), parts)
	lefts, rights := make([]selection, len(ranges)), make([]selection, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) error {
		lefts[i], rights[i] = table.probeRange(in, li, ranges[i].Lo, ranges[i].Hi)
		return nil
	}); err != nil {
		return nil, err
	}
	lg, err := takeSels(in, lefts)
	if err != nil {
		return nil, err
	}
	rg, err := takeSels(rightMat, rights)
	if err != nil {
		return nil, err
	}
	return cast.HConcat(schema, lg, rg)
}
