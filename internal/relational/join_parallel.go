package relational

import (
	"context"
	"math/bits"

	"polystorepp/internal/cast"
	"polystorepp/internal/partition"
)

// This file implements the hash join's table: a sequential chained build
// and a partition-parallel probe.
//
// Build: one pass over the build side's key column, read in place, links
// every build row into a chained hash table — a power-of-two head array
// indexed by the top bits of a Fibonacci hash of the key, and one next entry
// per build row. Rows are linked in descending order, so every bucket's chain
// lists its rows in ascending row order. The table is those two arrays
// however many distinct keys the build holds.
//
// Probe: the probe side is split into contiguous row ranges; one task per
// range walks each probe row's chain, comparing keys (a bucket may hold
// several), and lists the matched (left row, build row) pairs as two
// selections. Both sides are then taken once, in partition order
// (takeSels) — the same order-preserving discipline parallel.go uses — so
// the output equals a one-partition probe's row for row. A task polls ctx
// once per ChunkRows pairs it lists, so a join whose output explodes stops
// within one batch of its cancellation.

// joinTable is a chained hash table from join key to build-side row indices.
// Keys are typed: the int64 values when both sides' key columns are
// Int64/Timestamp, the strings when both are String, and otherwise each
// side's cast.AppendKey rendering — the join's original key — so an int64 5
// still meets a float64 5.
type joinTable struct {
	// head[bucket] and next[row] hold a build row + 1; 0 ends a chain.
	head, next []int32
	shift      uint     // 64 - log2(len(head)): the hash bits a bucket takes
	intKeyed   bool     // the keys are ints, else strs
	ints       []int64  // build keys of an integer join
	strs       []string // build keys of any other
	rendered   bool     // strs holds AppendKey renderings
}

// fib is 2^64 divided by the golden ratio: multiplying by it spreads keys
// over the top bits of the product (Fibonacci hashing).
const fib = 0x9E3779B97F4A7C15

func hashInt(key int64) uint64 { return uint64(key) * fib }

// hashStr hashes a string key with FNV-1a, written out so the per-row loops
// pay no hash-state or []byte conversion allocations, then spreads it as
// hashInt does.
func hashStr(key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h * fib
}

// strKeys returns the table's string keys of rows [lo, hi) of column ci of
// b: the column itself when the table keys on strings as stored, else the
// rows' AppendKey renderings, which share one allocation.
func (t *joinTable) strKeys(b *cast.Batch, ci, lo, hi int) []string {
	if !t.rendered {
		keys, _ := b.Strings(ci)
		return keys[lo:hi]
	}
	cols, ends := []int{ci}, make([]int, hi-lo)
	var buf []byte
	for r := lo; r < hi; r++ {
		buf = b.AppendKey(buf, r, cols)
		ends[r-lo] = len(buf)
	}
	all, keys, start := string(buf), make([]string, hi-lo), 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	return keys
}

// buildJoinTable indexes build rows by the key column ci, keyed to meet a
// probe column of type probe.
func buildJoinTable(build *cast.Batch, ci int, probe cast.Type) *joinTable {
	n := build.Rows()
	logSize := bits.Len(uint(max(n, 1) - 1))
	t := &joinTable{head: make([]int32, 1<<logSize), next: make([]int32, n), shift: uint(64 - logSize)}
	intKey := func(t cast.Type) bool { return t == cast.Int64 || t == cast.Timestamp }
	if bt := build.Schema().Col(ci).Type; intKey(bt) && intKey(probe) {
		t.intKeyed = true
		t.ints, _ = build.Ints(ci)
		link(t, t.ints, hashInt)
	} else {
		t.rendered = bt != cast.String || probe != cast.String
		t.strs = t.strKeys(build, ci, 0, n)
		link(t, t.strs, hashStr)
	}
	return t
}

// link chains every build row into its key's bucket, last row first, so
// each chain runs in ascending row order.
func link[K comparable](t *joinTable, keys []K, hash func(K) uint64) {
	for r := len(keys) - 1; r >= 0; r-- {
		b := hash(keys[r]) >> t.shift
		t.next[r], t.head[b] = t.head[b], int32(r+1)
	}
}

// probeRange matches rows [lo, hi) of lb's key column li against the table.
// It returns the matched pairs as two selections — left rows (lb's numbering)
// and build rows — in left-row order with each left row's matches in
// build-row order: the sequential emission order. Unlike a filter's, these
// lists may repeat a row and the build rows come in any order; a side is a
// run when the loop saw it be one.
func (t *joinTable) probeRange(ctx context.Context, lb *cast.Batch, li, lo, hi int) (left, right selection, err error) {
	if t.intKeyed {
		keys, _ := lb.Ints(li)
		return probeChains(ctx, t, t.ints, keys[lo:hi], lo, hashInt)
	}
	return probeChains(ctx, t, t.strs, t.strKeys(lb, li, lo, hi), lo, hashStr)
}

// probeChains walks each probe key's chain; probe[i] is the key of row lo+i.
func probeChains[K comparable](ctx context.Context, t *joinTable, build, probe []K, lo int, hash func(K) uint64) (left, right selection, err error) {
	// ls stays unlisted while every probe row has matched exactly once: the
	// left side is then the run [lo, lo+i).
	var ls []int32
	rs, consecutive, poll := make([]int32, 0, len(probe)), true, ChunkRows
	for i, k := range probe {
		matches := 0
		for e := t.head[hash(k)>>t.shift]; e != 0; e = t.next[e-1] {
			if rr := e - 1; build[rr] == k {
				consecutive = consecutive && (len(rs) == 0 || rr == rs[len(rs)-1]+1)
				rs = append(rs, rr)
				matches++
				if len(rs) == poll {
					if err := ctx.Err(); err != nil {
						return selection{}, selection{}, err
					}
					poll += ChunkRows
				}
			}
		}
		if ls == nil && matches != 1 {
			ls = runOf(lo, lo+i).list(make([]int32, 0, len(probe)))
		}
		for ; ls != nil && matches > 0; matches-- {
			ls = append(ls, int32(lo+i))
		}
	}
	left, right = runOf(lo, lo+len(probe)), selection{rows: rs}
	if ls != nil {
		left = selection{rows: ls}
	}
	if consecutive && len(rs) > 0 {
		right = runOf(int(rs[0]), int(rs[0])+len(rs))
	}
	return left, right, nil
}

// parProbe probes in against table across partitions: each computes the
// matched pairs of its row range, then both sides are handed on as one
// selection each, in partition order, and zipped under schema. Neither side
// is gathered here: a consumer that reads three of the joined columns
// gathers three.
func parProbe(ctx context.Context, in *cast.Batch, li int, table *joinTable, rightMat *cast.Batch, schema cast.Schema, parts int) (*cast.Batch, error) {
	ranges := partition.Split(in.Rows(), partition.Effective(in.Rows(), parts))
	lefts, rights := make([]selection, len(ranges)), make([]selection, len(ranges))
	if err := partition.Shared().Do(ctx, len(ranges), func(i int) (err error) {
		lefts[i], rights[i], err = table.probeRange(ctx, in, li, ranges[i].Lo, ranges[i].Hi)
		return err
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
