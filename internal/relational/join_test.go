package relational

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"polystorepp/internal/cast"
)

// joinOracleTables builds orders(oid, uid_fk, amount) of n rows over
// users(uid, name): order i belongs to user i%users, named "u<uid>", and
// amounts to (i%97)/2.
func joinOracleTables(t *testing.T, name string, n, users int) *Store {
	t.Helper()
	store := NewStore(name)
	orders, err := store.CreateTable("orders", cast.MustSchema(
		cast.Column{Name: "oid", Type: cast.Int64},
		cast.Column{Name: "uid_fk", Type: cast.Int64},
		cast.Column{Name: "amount", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := orders.Insert(int64(i), int64(i%users), float64(i%97)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	ut, err := store.CreateTable("users", cast.MustSchema(
		cast.Column{Name: "uid", Type: cast.Int64},
		cast.Column{Name: "name", Type: cast.String},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := ut.Insert(int64(i), fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestParallelJoinSQLEquivalence checks Engine.Query on a 12 000-row join —
// once large enough for the probe to fan out, which it does not now —
// against the rows a plain loop over the inserted values joins.
func TestParallelJoinSQLEquivalence(t *testing.T) {
	store := joinOracleTables(t, "sql-join", 12000, 400)
	sql := "SELECT oid, name FROM orders JOIN users ON uid_fk = uid WHERE amount > 10.0 ORDER BY oid"
	got, _, err := NewEngine(store).Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	for i := 0; i < 12000; i++ {
		if float64(i%97)*0.5 <= 10.0 {
			continue
		}
		if row, err := got.Row(r); err != nil || row[0] != int64(i) || row[1] != fmt.Sprintf("u%d", i%400) {
			t.Fatalf("sql %q: row %d is %v, want order %d (%v)", sql, r, row, i, err)
		}
		r++
	}
	if got.Rows() != r {
		t.Fatalf("sql %q: %d rows, want %d", sql, got.Rows(), r)
	}
}

// joinSide is one input of a differential join case: row i carries id i and
// key keys[i], a []int64 (Int64 or Timestamp), []float64 or []string.
type joinSide struct {
	typ  cast.Type
	keys any
}

func (s joinSide) batch(t *testing.T, id, key string) *cast.Batch {
	t.Helper()
	n := reflect.ValueOf(s.keys).Len()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	b, err := cast.BatchOf(cast.MustSchema(
		cast.Column{Name: id, Type: cast.Int64},
		cast.Column{Name: key, Type: s.typ},
	), ids, s.keys)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nestedLoopJoin is the join by definition: every (left, right) row pair
// whose keys meet, left rows in order and each one's matches in right-row
// order. Integer keys (Int64, Timestamp) meet by value, two String keys by
// value, and any other pair by their cast.AppendKey renderings.
func nestedLoopJoin(left, right *cast.Batch) [][]any {
	intKey := func(t cast.Type) bool { return t == cast.Int64 || t == cast.Timestamp }
	lt, rt := left.Schema().Col(1).Type, right.Schema().Col(1).Type
	key := func(b *cast.Batch, r int) any {
		v, _ := b.Value(r, 1)
		if (intKey(lt) && intKey(rt)) || (lt == cast.String && rt == cast.String) {
			return v
		}
		return string(b.AppendKey(nil, r, []int{1}))
	}
	var out [][]any
	for l := 0; l < left.Rows(); l++ {
		for r := 0; r < right.Rows(); r++ {
			if key(left, l) == key(right, r) {
				lrow, _ := left.Row(l)
				rrow, _ := right.Row(r)
				out = append(out, append(lrow, rrow...))
			}
		}
	}
	return out
}

// sameBucket returns n int64 keys, 0 first, that a join table over rows
// build rows puts in one bucket.
func sameBucket(t *testing.T, rows, n int) []int64 {
	build := joinSide{cast.Int64, make([]int64, rows)}.batch(t, "rid", "rk")
	shift := buildJoinTable(build, 1, cast.Int64).shift
	var keys []int64
	for k := int64(0); len(keys) < n; k++ {
		if hashInt(k)>>shift == hashInt(0)>>shift {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestHashJoinEqualsNestedLoop holds the hash join to the nested loop, rows
// and their order, over seeded tables: heavy key duplication on both sides,
// the int64 extremes, keys that share a bucket, every key alike, skewed keys,
// an empty and a one-row build, an empty probe, and the key pairs that meet
// across types (Int64 with Timestamp by value, Int64 with Float64 by
// rendering).
func TestHashJoinEqualsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ints := func(n int, pick func() int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	among := func(vals ...int64) func() int64 { return func() int64 { return vals[rng.Intn(len(vals))] } }
	upTo := func(n int) func() int64 { return func() int64 { return int64(rng.Intn(n)) } }
	floats := func(n int, vals ...float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
		return out
	}
	strs := func(n int, vals ...string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
		return out
	}
	// Eight keys of one bucket of the 64-row build's table; the probe also
	// asks for bucket-mates the build does not hold.
	mates := sameBucket(t, 64, 12)
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	cases := []struct {
		name        string
		left, right joinSide
	}{
		{"duplicated", joinSide{cast.Int64, ints(2500, upTo(9))}, joinSide{cast.Int64, ints(300, upTo(11))}},
		{"extremes", joinSide{cast.Int64, ints(1500, among(extremes...))}, joinSide{cast.Int64, ints(40, among(extremes[1:]...))}},
		{"same-bucket", joinSide{cast.Int64, ints(2100, among(mates...))}, joinSide{cast.Int64, ints(64, among(mates[:8]...))}},
		{"empty-build", joinSide{cast.Int64, ints(1200, upTo(4))}, joinSide{cast.Int64, []int64{}}},
		{"one-row-build", joinSide{cast.Int64, ints(1200, upTo(4))}, joinSide{cast.Int64, []int64{2}}},
		{"empty-probe", joinSide{cast.Int64, []int64{}}, joinSide{cast.Int64, ints(500, upTo(37))}},
		{"all-keys-collide", joinSide{cast.Int64, ints(300, among(7))}, joinSide{cast.Int64, ints(200, among(7))}},
		// 90% of probe rows and half the build rows share key 0.
		{"skewed", joinSide{cast.Int64, ints(3000, among(0, 0, 0, 0, 0, 0, 0, 0, 0, 5))}, joinSide{cast.Int64, ints(600, among(0, 1, 2, 3))}},
		{"int-timestamp", joinSide{cast.Int64, ints(1500, upTo(30))}, joinSide{cast.Timestamp, ints(200, upTo(40))}},
		{"timestamp-int", joinSide{cast.Timestamp, ints(1500, upTo(30))}, joinSide{cast.Int64, ints(200, upTo(40))}},
		{"int-float", joinSide{cast.Int64, ints(1500, among(-3, 0, 2, 5, 7, 1e8))}, joinSide{cast.Float64, floats(120, -3, 0, 0.5, 2, 5, 1e8, math.Inf(1))}},
		{"float-int", joinSide{cast.Float64, floats(1500, -3, 0, 0.5, 2, 5)}, joinSide{cast.Int64, ints(120, among(-3, 0, 2, 4, 5))}},
		{"strings", joinSide{cast.String, strs(1500, "", "a", "b|c", "\"q\"", "zz")}, joinSide{cast.String, strs(90, "", "a", "b|c", "\"q\"", "y")}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			left, right := c.left.batch(t, "lid", "lk"), c.right.batch(t, "rid", "rk")
			want := nestedLoopJoin(left, right)
			if len(want) == 0 && left.Rows() > 0 && right.Rows() > 0 {
				t.Fatal("the case joins no rows")
			}
			if c.name == "same-bucket" {
				// The build must really chain several keys into one bucket.
				table := buildJoinTable(right, 1, cast.Int64)
				keys := map[int64]bool{}
				for e := table.head[hashInt(0)>>table.shift]; e != 0; e = table.next[e-1] {
					keys[table.ints[e-1]] = true
				}
				if len(keys) < 2 {
					t.Fatalf("bucket of key 0 holds %d keys, want several", len(keys))
				}
			}
			got, err := hashJoin(ctx, left, right, "lk", "rk")
			if err != nil {
				t.Fatal(err)
			}
			if diff := diffRows(got, want); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestMergeJoinEqualsNestedLoop runs the merge over interleaved, partly
// matching int64 keys, so the merge advances the left side past keys the
// right lacks (the < arm), the right side past keys the left lacks (the >
// arm), and emits runs of equal keys, with either side running out first.
// The merge emits in key order, each key's left rows in input order with
// their matches in right-row order: the nested-loop join stably sorted by
// key.
func TestMergeJoinEqualsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	step := func(n, mod int, by int64, off int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(mod))*by + off
		}
		return out
	}
	cases := []struct {
		name        string
		left, right []int64
	}{
		// Evens against multiples of three: every sixth key meets.
		{"evens-threes", step(400, 60, 2, 0), step(250, 40, 3, 0)},
		// The left side's keys run past the right's, and the reverse.
		{"left-longer", step(300, 80, 1, 0), step(120, 20, 1, 10)},
		{"right-longer", step(120, 20, 1, 10), step(300, 80, 1, 0)},
		{"negative", step(200, 30, 5, -70), step(200, 30, 7, -90)},
		{"disjoint", step(50, 10, 2, 0), step(50, 10, 2, 1)},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			left := joinSide{cast.Int64, c.left}.batch(t, "lid", "lk")
			right := joinSide{cast.Int64, c.right}.batch(t, "rid", "rk")
			want := nestedLoopJoin(left, right)
			slices.SortStableFunc(want, func(a, b []any) int { return cmp.Compare(a[1].(int64), b[1].(int64)) })
			got, _, err := MergeJoin(ctx, left, right, "lk", "rk")
			if err != nil {
				t.Fatal(err)
			}
			if diff := diffRows(got, want); diff != "" {
				t.Fatal(diff)
			}
			if c.name != "disjoint" && len(want) == 0 {
				t.Fatal("the case joins no rows")
			}
		})
	}
}

// TestHashJoinProbeStopsWhenCancelled: two 6 000-row tables on a two-valued
// key join into 18 M pairs. A context cancelled right after the probe's
// first poll must stop it within one batch of pairs: HashJoin answers
// context.Canceled having allocated a few KiB, not the pair lists.
func TestHashJoinProbeStopsWhenCancelled(t *testing.T) {
	keys := make([]int64, 6000)
	for i := range keys {
		keys[i] = int64(i % 2)
	}
	left, right := joinSide{cast.Int64, keys}.batch(t, "lid", "lk"), joinSide{cast.Int64, keys}.batch(t, "rid", "rk")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Two checks pass: HashJoin's on entry and the probe's first poll.
	out, _, err := HashJoin(&afterChecks{Context: context.Background(), n: 2}, left, right, "lk", "rk")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("probe returned %v rows and error %v, want context.Canceled and nothing", out, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("cancelled probe allocated %d bytes, want at most 4 MiB", got)
	}
}
