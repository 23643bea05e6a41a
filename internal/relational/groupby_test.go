package relational

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polystorepp/internal/cast"
)

// refGroupBy is the reference GroupBy is held to, sharing none of its
// kernels: a row-order loop over boxed values with one map entry per group,
// keyed by the key columns' cast.AppendKey rendering (so NaN keys group
// together and -0 apart from +0). COUNT counts rows; SUM of int64s is exact
// (math/big) and fails with ErrOverflow past int64; SUM of floats and AVG
// fold float64s in row order; MIN/MAX start from the group's first value and
// take a later one only when refCompare puts it strictly below (above).
// Groups come out ordered by their rendering; with no group columns and no
// rows, one row of zero values.
func refGroupBy(t *testing.T, in *cast.Batch, groupCols []string, aggs []AggSpec) ([][]any, error) {
	t.Helper()
	col := func(name string) int {
		i, err := in.Schema().Index(name)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	type group struct {
		key   string
		first int
		count int64
		ints  []*big.Int
		sums  []float64
		ext   []any
	}
	keyCols := make([]int, len(groupCols))
	for i, c := range groupCols {
		keyCols[i] = col(c)
	}
	byKey := map[string]*group{}
	var groups []*group
	for r := 0; r < in.Rows(); r++ {
		key := string(in.AppendKey(nil, r, keyCols))
		g := byKey[key]
		if g == nil {
			g = &group{key: key, first: r, ints: make([]*big.Int, len(aggs)), sums: make([]float64, len(aggs)), ext: make([]any, len(aggs))}
			for i := range g.ints {
				g.ints[i] = new(big.Int)
			}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.count++
		for i, a := range aggs {
			if a.Col == "" {
				continue
			}
			v, err := in.Value(r, col(a.Col))
			if err != nil {
				t.Fatal(err)
			}
			switch a.Fn {
			case AggSum, AggAvg:
				switch x := v.(type) {
				case int64:
					if a.Fn == AggSum {
						g.ints[i].Add(g.ints[i], big.NewInt(x))
					} else {
						g.sums[i] += float64(x)
					}
				case float64:
					g.sums[i] += x
				}
			case AggMin, AggMax:
				if g.ext[i] == nil {
					g.ext[i] = v
					continue
				}
				c, err := refCompare(v, g.ext[i])
				if err != nil {
					t.Fatal(err)
				}
				if a.Fn == AggMin && c < 0 || a.Fn == AggMax && c > 0 {
					g.ext[i] = v
				}
			}
		}
	}
	schema, err := GroupBySchema(in.Schema(), groupCols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 && len(groupCols) == 0 {
		row := make([]any, schema.Len())
		for i := range row {
			row[i] = map[cast.Type]any{cast.Int64: int64(0), cast.Float64: 0.0, cast.String: "", cast.Bool: false}[schema.Col(i).Type]
		}
		return [][]any{row}, nil
	}
	slices.SortFunc(groups, func(x, y *group) int { return strings.Compare(x.key, y.key) })
	var rows [][]any
	for _, g := range groups {
		var row []any
		for _, c := range keyCols {
			v, _ := in.Value(g.first, c)
			row = append(row, v)
		}
		for i, a := range aggs {
			switch {
			case a.Fn == AggCount:
				row = append(row, g.count)
			case a.Fn == AggMin || a.Fn == AggMax:
				row = append(row, g.ext[i])
			case a.Fn == AggSum && schema.Col(len(keyCols)+i).Type == cast.Int64:
				if !g.ints[i].IsInt64() {
					return nil, ErrOverflow
				}
				row = append(row, g.ints[i].Int64())
			case a.Fn == AggAvg:
				row = append(row, g.sums[i]/float64(g.count))
			default:
				row = append(row, g.sums[i])
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// diffRows describes the first difference between out and rows, floats
// compared by bit pattern, or returns "" when there is none.
func diffRows(out *cast.Batch, rows [][]any) string {
	if out.Rows() != len(rows) {
		return fmt.Sprintf("%d rows, want %d", out.Rows(), len(rows))
	}
	for r, want := range rows {
		got, err := out.Row(r)
		if err != nil {
			return err.Error()
		}
		for c := range got {
			same := got[c] == want[c]
			if f, ok := got[c].(float64); ok {
				w, ok := want[c].(float64)
				same = ok && math.Float64bits(f) == math.Float64bits(w)
			}
			if !same {
				return fmt.Sprintf("row %d is %v, want %v", r, got, want)
			}
		}
	}
	return ""
}

// refSchema is every column type an aggregate or a key reads.
func refSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "k", Type: cast.Int64},
		cast.Column{Name: "s", Type: cast.String},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "b", Type: cast.Bool},
		cast.Column{Name: "n", Type: cast.Int64},
		cast.Column{Name: "w", Type: cast.Int64},
		cast.Column{Name: "ts", Type: cast.Timestamp},
	)
}

// refKeys are the int64 key shapes the group lookup special-cases, each
// drawing the key of row r of n.
var refKeys = []struct {
	name string
	key  func(rng *rand.Rand, r, n int) int64
}{
	{"few", func(rng *rand.Rand, r, n int) int64 { return int64(rng.Intn(5)) }},
	// The slot table's bound is a span of 2n keys: rows 0 and 1 pin the span
	// at exactly that, or one past it.
	{"span-2n", func(rng *rand.Rand, r, n int) int64 {
		return -40 + [...]int64{0, int64(2*n - 1), int64(rng.Intn(2 * n))}[min(r, 2)]
	}},
	{"span-2n+1", func(rng *rand.Rand, r, n int) int64 {
		return -40 + [...]int64{0, int64(2 * n), int64(rng.Intn(2*n + 1))}[min(r, 2)]
	}},
	{"extremes", func(rng *rand.Rand, r, n int) int64 {
		return [...]int64{math.MinInt64, math.MaxInt64, -1, -7, 0, 3}[rng.Intn(6)]
	}},
	// The second half's keys lie outside the first half's span, or inside it
	// on values the first half never had.
	{"halves", func(rng *rand.Rand, r, n int) int64 {
		switch {
		case r < n/2:
			return int64(2 * rng.Intn(10))
		case rng.Intn(2) == 0:
			return int64(1000 + rng.Intn(10))
		}
		return int64(2*rng.Intn(10) + 1)
	}},
}

// refBatch draws n rows: floats from a few multiples of 0.25 (every sum of
// them exact, so any fold order gives the same bits) with NaN, -0 and +0;
// and with huge set, w's int64s near ±2^62, so its sums overflow or cancel
// back into range (AVG, a float fold, reads n only).
func refBatch(t *testing.T, rng *rand.Rand, n int, key func(rng *rand.Rand, r, n int) int64, huge bool) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(refSchema(), n)
	zeros := rng.Intn(3) == 0 // floats only ±0 and NaN: extremes tie on unequal bits
	for r := 0; r < n; r++ {
		f := float64(rng.Intn(9)-4) * 0.25
		if zeros {
			f = 0
		}
		switch rng.Intn(8) {
		case 0:
			f = math.NaN()
		case 1:
			f = math.Copysign(0, -1)
		}
		v, w := int64(rng.Intn(7)-3), int64(rng.Intn(7)-3)
		if huge && rng.Intn(4) == 0 {
			w = int64(rng.Intn(3)-1) << 62
		}
		if err := b.AppendRow(key(rng, r, n), fmt.Sprint("s", rng.Intn(4)), f, rng.Intn(3) == 0, v, w, int64(rng.Intn(50))); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestGroupByEqualsReference: GroupBy yields refGroupBy's rows bit for bit,
// or its overflow, for every key shape the group lookup special-cases and
// every aggregate over every column type.
func TestGroupByEqualsReference(t *testing.T) {
	aggs := []AggSpec{{Fn: AggCount, As: "n_all"}, {Fn: AggCount, Col: "f", As: "n_f"}, {Fn: AggSum, Col: "w", As: "sum_w"}}
	for _, c := range []string{"n", "f", "ts"} {
		aggs = append(aggs, AggSpec{Fn: AggSum, Col: c, As: "sum_" + c}, AggSpec{Fn: AggAvg, Col: c, As: "avg_" + c})
	}
	for _, c := range []string{"n", "w", "f", "ts", "s", "b"} {
		aggs = append(aggs, AggSpec{Fn: AggMin, Col: c, As: "min_" + c}, AggSpec{Fn: AggMax, Col: c, As: "max_" + c})
	}
	keySets := [][]string{nil, {"k"}, {"s"}, {"f"}, {"b"}, {"ts"}, {"k", "s"}, {"b", "f"}}
	rng := rand.New(rand.NewSource(32))
	for _, shape := range refKeys {
		for trial := 0; trial < 40; trial++ {
			n := []int{0, 1, 2, 3 + rng.Intn(300)}[rng.Intn(4)]
			in := refBatch(t, rng, n, shape.key, trial%5 == 0)
			for _, keys := range keySets {
				want, wantErr := refGroupBy(t, in, keys, aggs)
				got, err := groupBy(context.Background(), in, keys, aggs)
				switch {
				case wantErr != nil:
					if !errors.Is(err, ErrOverflow) {
						t.Fatalf("%s trial %d, keys %v: error %v, want the reference's overflow", shape.name, trial, keys, err)
					}
				case err != nil:
					t.Fatalf("%s trial %d, keys %v: %v", shape.name, trial, keys, err)
				default:
					if diff := diffRows(got, want); diff != "" {
						t.Fatalf("%s trial %d, keys %v: %s", shape.name, trial, keys, diff)
					}
				}
			}
		}
	}
}

// TestIntSumExact: an int64 SUM is exact — 2^53 then 3 999 ones, which a
// float64 fold rounds to 2^53 — even where the running sum leaves int64 on
// its way to the total; a total past int64 fails, naming the aggregate.
func TestIntSumExact(t *testing.T) {
	schema := cast.MustSchema(cast.Column{Name: "v", Type: cast.Int64}, cast.Column{Name: "g", Type: cast.Int64})
	batch := func(vals ...int64) *cast.Batch {
		b := cast.NewBatch(schema, len(vals))
		for _, v := range vals {
			if err := b.AppendRow(v, int64(0)); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	ones := []int64{1 << 53}
	for len(ones) < 4000 {
		ones = append(ones, 1)
	}
	aggs := []AggSpec{{Fn: AggSum, Col: "v", As: "total"}}
	for _, tc := range []struct {
		vals []int64
		want int64 // 0: overflows
	}{
		{ones, 1<<53 + 3999},
		{[]int64{math.MaxInt64, 1, -1}, math.MaxInt64},
		{[]int64{math.MinInt64, -1, 1}, math.MinInt64},
		{[]int64{math.MaxInt64, 1}, 0},
		{[]int64{math.MinInt64, -1}, 0},
		{[]int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, -5}, -7},
	} {
		in := batch(tc.vals...)
		for _, keys := range [][]string{nil, {"g"}} {
			out, err := groupBy(context.Background(), in, keys, aggs)
			if tc.want == 0 {
				if !errors.Is(err, ErrOverflow) || !strings.Contains(err.Error(), "sum(v) AS total") {
					t.Errorf("%d values, keys %v: error %v, want an overflow naming sum(v) AS total", len(tc.vals), keys, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d values, keys %v: %v", len(tc.vals), keys, err)
			}
			if got, _ := out.Value(0, len(keys)); got != tc.want {
				t.Errorf("%d values, keys %v: sum %v, want %d", len(tc.vals), keys, got, tc.want)
			}
		}
	}
}

// TestFloatAggregatesFoldInRowOrder: a float SUM and AVG are what a plain
// loop over the rows computes, bit for bit, through GroupBy and through
// Engine.Query. Over 10 000 rows of 0.1·(i%7+1) the row-order sum is
// 3999.3999999998059; adding the first and second halves' sums instead gives
// 3999.3999999999937, which a fold split across cores would answer.
func TestFloatAggregatesFoldInRowOrder(t *testing.T) {
	const rows = 10_000
	store := NewStore("floats")
	tab, err := store.CreateTable("t", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "v", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < rows; i++ {
		v := 0.1 * float64(i%7+1)
		sum += v
		if err := tab.Insert(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if sum != 3999.3999999998059 {
		t.Fatalf("row-order sum %v, want 3999.3999999998059", sum)
	}
	want := []any{sum, sum / rows}
	ctx := context.Background()
	aggs := []AggSpec{{Fn: AggSum, Col: "v", As: "total"}, {Fn: AggAvg, Col: "v", As: "mean"}}
	viaGroupBy, err := groupBy(ctx, tab.Snapshot(), nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	viaQuery, _, err := NewEngine(store).Query(ctx, "SELECT sum(v) AS total, avg(v) AS mean FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*cast.Batch{"GroupBy": viaGroupBy, "Engine.Query": viaQuery} {
		if got, err := out.Row(0); err != nil || out.Rows() != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v of %d rows (%v), want %v", name, got, out.Rows(), err, want)
		}
	}
}
