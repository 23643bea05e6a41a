package cast

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins SortBy's two paths to one meaning: with a limit n it is the
// full stable sort's first n rows, row for row, whatever the ties, the key
// types, the NaNs or the storage the input reads through.

// sortedIDs returns column "id" of b, the input row each output row came from.
func sortedIDs(t testing.TB, b *Batch) []int64 {
	t.Helper()
	ci, err := b.Schema().Index("id")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := b.Ints(ci)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestSortKeyNaNOrder pins the total order of a float sort key: NaN after
// every number ascending and before every number descending, NaNs level with
// each other, -0 level with +0 — so every tie keeps row order.
func TestSortKeyNaNOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{3, nan, 1, inf, math.Copysign(0, -1), nan, -inf, 0, 2, -nan}
	b := NewBatch(MustSchema(Column{Name: "v", Type: Float64}, Column{Name: "id", Type: Int64}), len(vals))
	for i, v := range vals {
		if err := b.AppendRow(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		desc bool
		want []int64
	}{
		{false, []int64{6, 4, 7, 2, 8, 0, 3, 1, 5, 9}},
		{true, []int64{1, 5, 9, 3, 0, 8, 2, 4, 7, 6}},
	} {
		for n := -1; n <= len(vals)+1; n++ {
			got, err := b.SortBy(n, SortKey{Col: "v", Desc: tc.desc})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if n >= 0 && n < len(want) {
				want = want[:n]
			}
			if ids := sortedIDs(t, got); !slices.Equal(ids, want) {
				t.Errorf("desc=%v limit %d: rows %v, want %v", tc.desc, n, ids, want)
			}
		}
	}
	// MIN/MAX and WHERE keep compareValues' ordering, under which NaN is
	// level with everything.
	if c, _ := compareValues(nan, 1.0); c != 0 {
		t.Fatalf("compareValues(NaN, 1) = %d, want 0", c)
	}
	if c := b.Comparator(0)(1, 2); c != 0 {
		t.Fatalf("Comparator(NaN row, 1 row) = %d, want 0", c)
	}
}

// sortTypes are the five column types a sort key can have.
var sortTypes = []Type{Int64, Float64, String, Bool, Timestamp}

// floatPalette is what a float key is drawn from: few values, so ties are
// common, and every value a total order has to place.
var floatPalette = []float64{
	math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, 0.5, 2.5, math.MaxFloat64, -math.MaxFloat64, 5e-324,
}

// tiedValue returns a value of type ty drawn from a small domain of d.
func tiedValue(ty Type, d int) any {
	switch ty {
	case Int64, Timestamp:
		return int64(d%4 - 1)
	case Float64:
		return floatPalette[d%len(floatPalette)]
	case String:
		return [...]string{"", "a", "ab", "b"}[d%4]
	default:
		return d%2 == 0
	}
}

// tiedBatch returns rows rows of three key columns k0..k2, of types tys, and
// an id column holding each row's number; draw gives each key cell.
func tiedBatch(t testing.TB, rows int, tys [3]Type, draw func() int) *Batch {
	t.Helper()
	b := NewBatch(MustSchema(
		Column{Name: "k0", Type: tys[0]}, Column{Name: "k1", Type: tys[1]}, Column{Name: "k2", Type: tys[2]},
		Column{Name: "id", Type: Int64}), rows)
	for r := 0; r < rows; r++ {
		if err := b.AppendRow(tiedValue(tys[0], draw()), tiedValue(tys[1], draw()), tiedValue(tys[2], draw()), int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// bookOrder is the reference ORDER BY: a stable sort of row numbers on boxed
// values, NaN placed by hand after every number. It shares no code with
// SortBy's comparators.
func bookOrder(t testing.TB, b *Batch, keys []SortKey) []int64 {
	t.Helper()
	ids := sortedIDs(t, b)
	order := make([]int, b.Rows())
	for i := range order {
		order[i] = i
	}
	cmp := func(x, y int) int {
		for _, k := range keys {
			ci, _ := b.Schema().Index(k.Col)
			vx, _ := b.Value(x, ci)
			vy, _ := b.Value(y, ci)
			var c int
			fx, xf := vx.(float64)
			fy, _ := vy.(float64)
			switch {
			case xf && math.IsNaN(fx) && math.IsNaN(fy):
			case xf && math.IsNaN(fx):
				c = 1
			case xf && math.IsNaN(fy):
				c = -1
			default:
				var err error
				if c, err = compareValues(vx, vy); err != nil {
					t.Fatal(err)
				}
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(order, func(i, j int) bool { return cmp(order[i], order[j]) < 0 })
	out := make([]int64, len(order))
	for i, r := range order {
		out[i] = ids[r]
	}
	return out
}

// TestSortLimitIsStablePrefix: over random batches — one to three keys of
// every type, heavy ties, mixed directions, NaN/±Inf/±0, dense and
// selection-backed — SortBy(n) is the by-the-book order's first n rows, for n
// at and around every boundary, and SortBy(-1) is all of it.
func TestSortLimitIsStablePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 400; iter++ {
		var tys [3]Type
		for i := range tys {
			tys[i] = sortTypes[rng.Intn(len(sortTypes))]
		}
		domain := 1 + rng.Intn(len(floatPalette))
		b := tiedBatch(t, rng.Intn(80), tys, func() int { return rng.Intn(domain) })
		if rng.Intn(2) == 0 && b.Rows() > 0 {
			// Read through a selection: a shuffled subset, some rows twice.
			sel := make([]int32, rng.Intn(2*b.Rows())+1)
			for i := range sel {
				sel[i] = int32(rng.Intn(b.Rows()))
			}
			b = b.Take(sel)
		}
		keys := make([]SortKey, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = SortKey{Col: fmt.Sprint("k", rng.Intn(3)), Desc: rng.Intn(2) == 0}
		}
		want := bookOrder(t, b, keys)
		rows := b.Rows()
		for _, n := range []int{-1, 0, 1, rows - 1, rows, rows + 1, 1 << 62} {
			got, err := b.SortBy(n, keys...)
			if err != nil {
				t.Fatal(err)
			}
			w := want
			if n >= 0 && n < len(w) {
				w = w[:n]
			}
			if ids := sortedIDs(t, got); !slices.Equal(ids, w) {
				t.Fatalf("iter %d, %v over %v, %d rows, limit %d:\n got %v\nwant %v", iter, keys, tys, rows, n, ids, w)
			}
		}
	}
}

// FuzzSortLimitPrefix: over fuzzed columns — a float key drawn from NaN,
// ±Inf, ±0 and a few numbers, an int key, a string key — and any limit,
// SortBy(n) never panics and is SortBy(-1)'s first n rows (all of them for a
// negative n).
func FuzzSortLimitPrefix(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, int64(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, int64(3), uint8(0x3f))
	f.Add([]byte{12, 9, 200, 4, 4, 4, 77, 1, 0}, int64(math.MaxInt64), uint8(5))
	f.Add([]byte{5, 2, 3}, int64(-7), uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, n int64, spec uint8) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		b := NewBatch(MustSchema(Column{Name: "f", Type: Float64}, Column{Name: "i", Type: Int64},
			Column{Name: "s", Type: String}, Column{Name: "id", Type: Int64}), len(data)/3)
		for r := 0; r+2 < len(data); r += 3 {
			if err := b.AppendRow(floatPalette[int(data[r])%len(floatPalette)], int64(data[r+1]%5),
				string(rune('a'+data[r+2]%3)), int64(r/3)); err != nil {
				t.Fatal(err)
			}
		}
		if spec&0x80 != 0 && b.Rows() > 0 {
			sel := make([]int32, b.Rows())
			for i := range sel {
				sel[i] = int32(b.Rows() - 1 - i)
			}
			b = b.Take(sel)
		}
		// spec's low six bits: two bits a key (column, none), direction by
		// the key's position.
		var keys []SortKey
		for k := 0; k < 3; k++ {
			if c := int(spec>>(2*k)) & 3; c < 3 {
				keys = append(keys, SortKey{Col: [...]string{"f", "i", "s"}[c], Desc: (int(spec)+k)%2 == 0})
			}
		}
		full, err := b.SortBy(-1, keys...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.SortBy(int(n), keys...)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedIDs(t, full)
		if n >= 0 && n < int64(len(want)) {
			want = want[:n]
		}
		if ids := sortedIDs(t, got); !slices.Equal(ids, want) {
			t.Fatalf("%v limit %d: %v, full sort's prefix %v", keys, n, ids, want)
		}
	})
}
