package timeseries

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// journaled returns a store whose journal records are collected in *recs.
func journaled(recs *[][]byte) *Store {
	s := New("ts")
	s.SetJournal(func(record []byte) { *recs = append(*recs, record) })
	return s
}

// appendLoop appends pts one Append at a time, stopping at the first error.
func appendLoop(s *Store, name string, pts []Point) error {
	for _, p := range pts {
		if err := s.Append(name, p.TS, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// assertSameStore fails unless the two stores hold the same series, points
// and version.
func assertSameStore(t *testing.T, step string, want, got *Store) {
	t.Helper()
	if w, g := want.Version(), got.Version(); w != g {
		t.Fatalf("%s: version %d, want %d", step, g, w)
	}
	names := want.SeriesNames()
	if g := got.SeriesNames(); !slices.Equal(names, g) {
		t.Fatalf("%s: series %q, want %q", step, g, names)
	}
	for _, name := range names {
		w, err := want.Range(name, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Range(name, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w, g) {
			t.Fatalf("%s: series %q holds %d points, want %d (or they differ)", step, name, len(g), len(w))
		}
	}
}

// model is the test's own account of what appends must leave: each
// series' points, the version, and the journal records emitted so far.
type model struct {
	series  map[string][]Point
	version uint64
	recs    [][]byte
}

// apply appends pts the way Append is specified: one version and one
// journal record per point, stopping at the first point not after the
// series' last.
func (m *model) apply(name string, pts []Point) error {
	for _, p := range pts {
		if prev := m.series[name]; len(prev) > 0 && p.TS <= prev[len(prev)-1].TS {
			return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, p.TS, prev[len(prev)-1].TS)
		}
		m.series[name] = append(m.series[name], p)
		m.version++
		m.recs = append(m.recs, record(name, p.TS, p.Value, m.version))
	}
	return nil
}

// assertMatchesModel fails unless the store holds the model's series,
// points and version, and its journal the model's records.
func assertMatchesModel(t *testing.T, step string, s *Store, recs [][]byte, m *model) {
	t.Helper()
	if got := s.Version(); got != m.version {
		t.Fatalf("%s: version %d, want %d", step, got, m.version)
	}
	names := make([]string, 0, len(m.series))
	for name := range m.series {
		names = append(names, name)
	}
	slices.Sort(names)
	if got := s.SeriesNames(); !slices.Equal(got, names) {
		t.Fatalf("%s: series %q, want %q", step, got, names)
	}
	for _, name := range names {
		got, err := s.Range(name, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, m.series[name]) {
			t.Fatalf("%s: series %q holds %d points, want %d (or they differ)", step, name, len(got), len(m.series[name]))
		}
	}
	if !slices.EqualFunc(recs, m.recs, bytes.Equal) {
		t.Fatalf("%s: %d journal records, want %d (or they differ)", step, len(recs), len(m.recs))
	}
}

// run builds n points after ts, each 1..maxStep later than the one before.
func run(rng *rand.Rand, ts int64, n int, maxStep int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		ts += 1 + int64(rng.Intn(maxStep))
		pts[i] = Point{TS: ts, Value: rng.NormFloat64()}
	}
	return pts
}

// TestAppendPointsEqualsAppendLoop: AppendPoints and a loop of Append leave
// the points, the version and the journal records of the test's model of
// Append, and fail with its error text after applying the same prefix — on
// batches that cross the chunk boundary, are longer than a chunk, hold an
// out-of-order point mid-batch or exactly where a chunk starts, repeat a
// timestamp, or are empty.
func TestAppendPointsEqualsAppendLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var loopRecs, bulkRecs [][]byte
	loop, bulk := journaled(&loopRecs), journaled(&bulkRecs)
	m := &model{series: map[string][]Point{}}
	last := func(name string) int64 { // the series' last timestamp, or 0
		if pts := m.series[name]; len(pts) > 0 {
			return pts[len(pts)-1].TS
		}
		return 0
	}
	step := func(label, name string, pts []Point, wantErr bool) {
		t.Helper()
		errModel := m.apply(name, pts)
		if (errModel != nil) != wantErr {
			t.Fatalf("%s: the model returned %v, want an error: %t", label, errModel, wantErr)
		}
		if err := appendLoop(loop, name, pts); fmt.Sprint(err) != fmt.Sprint(errModel) {
			t.Fatalf("%s: the Append loop returned %v, want %v", label, err, errModel)
		}
		if err := bulk.AppendPoints(name, pts); fmt.Sprint(err) != fmt.Sprint(errModel) {
			t.Fatalf("%s: AppendPoints returned %v, want %v", label, err, errModel)
		}
		assertMatchesModel(t, label+" (Append loop)", loop, loopRecs, m)
		assertMatchesModel(t, label+" (AppendPoints)", bulk, bulkRecs, m)
	}

	step("empty batch", "none", nil, false)
	step("empty slice", "none", []Point{}, false)

	step("longer than a chunk", "a", run(rng, 0, 2*chunkSize+37, 1000), false)
	step("to the boundary", "b", run(rng, -5000, chunkSize-20, 3), false)
	step("across the boundary", "b", run(rng, last("b"), 45, 3), false)

	pts := run(rng, last("a"), 40, 100)
	pts[17].TS = pts[16].TS - 3
	step("out of order mid-batch", "a", pts, true)

	pts = run(rng, last("a"), 12, 100)
	pts[6].TS = pts[5].TS
	step("duplicate timestamp", "a", pts, true)

	// Fill "c" to one point short of a chunk; the second point of the next
	// batch lands where a fresh chunk starts, and is stale.
	step("short of the boundary", "c", run(rng, 0, chunkSize-1, 10), false)
	pts = run(rng, last("c"), 8, 10)
	pts[1].TS = pts[0].TS - 1
	step("stale at the boundary", "c", pts, true)
	if n := len(m.series["c"]); n != chunkSize {
		t.Fatalf("series c holds %d points after the boundary failure, want %d", n, chunkSize)
	}
	step("first point stale at the boundary", "c", []Point{{TS: last("c"), Value: 1}}, true)
	step("after the boundary failure", "c", run(rng, last("c"), 3, 10), false)

	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 200; i++ {
		name := names[rng.Intn(len(names))]
		n := rng.Intn(3 * chunkSize / 2)
		if rng.Intn(8) == 0 {
			n = 0
		}
		pts := run(rng, last(name), n, 1+rng.Intn(1000))
		bad := false
		if k := rng.Intn(max(n, 1)); n > 0 && rng.Intn(4) == 0 {
			// A repeated or earlier timestamp; at k = 0 it is stale against
			// the series' last point, if there is one.
			prev := last(name)
			if k > 0 {
				prev = pts[k-1].TS
			}
			pts[k].TS = prev - int64(rng.Intn(2))
			bad = k > 0 || len(m.series[name]) > 0
		}
		step(fmt.Sprintf("random batch %d", i), name, pts, bad)
	}
}

// refDecode is the materializing decoder chunk.walk replaced: the reference
// the walk must agree with.
func refDecode(c *chunk) []Point {
	out := make([]Point, 0, len(c.values))
	if len(c.values) == 0 {
		return out
	}
	ts := c.first
	out = append(out, Point{TS: ts, Value: c.values[0]})
	var delta int64
	for i := 1; i < len(c.values); i++ {
		if i == 1 {
			delta = c.deltas[0]
		} else {
			delta += c.deltas[i-1]
		}
		ts += delta
		out = append(out, Point{TS: ts, Value: c.values[i]})
	}
	return out
}

// TestChunkWalkEqualsDecode: the walk yields the reference decoder's points
// on random chunks of every length, with steady, irregular and huge gaps.
func TestChunkWalkEqualsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c := &chunk{}
		n := rng.Intn(chunkSize + 1)
		ts := rng.Int63n(1<<40) - 1<<39
		for i := 0; i < n; i++ {
			if err := c.append(ts, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(3) {
			case 0:
				ts += 1_800_000_000_000
			case 1:
				ts += 1 + rng.Int63n(1000)
			default:
				ts += 1 + rng.Int63n(1<<50)
			}
		}
		var got []Point
		c.walk(func(ts int64, v float64) { got = append(got, Point{TS: ts, Value: v}) })
		if want := refDecode(c); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d points): walk differs from the reference decode", trial, n)
		}
	}
}

// TestSnapshotRestoreReproducesSeries: Restore of a Snapshot holds every
// series' points in the same chunks, at the same version, and sizes each
// restored chunk once, from its blob.
func TestSnapshotRestoreReproducesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := New("ts")
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := src.AppendPoints(name, run(rng, rng.Int63n(1000), 1+rng.Intn(3*chunkSize), 500)); err != nil {
			t.Fatal(err)
		}
		pts, _ := src.Range(name, math.MinInt64, math.MaxInt64)
		tail := rng.Int63n(40)
		for j := int64(1); j <= tail; j++ { // single-point tails grow a chunk by doubling
			if err := src.Append(name, pts[len(pts)-1].TS+j, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	dst := New("ts")
	if err := dst.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, "restore", src, dst)
	for name, sr := range src.series {
		rs := dst.series[name]
		if len(rs.chunks) != len(sr.chunks) {
			t.Fatalf("series %q restored into %d chunks, want %d", name, len(rs.chunks), len(sr.chunks))
		}
		for i, c := range rs.chunks {
			if len(c.values) != len(sr.chunks[i].values) {
				t.Fatalf("series %q chunk %d restored %d points, want %d", name, i, len(c.values), len(sr.chunks[i].values))
			}
			if grown := slices.Grow([]float64(nil), len(c.values)); cap(c.values) != cap(grown) {
				t.Fatalf("series %q chunk %d has capacity %d for %d points, want one growth to %d", name, i, cap(c.values), len(c.values), cap(grown))
			}
		}
	}
}
