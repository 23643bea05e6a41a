package adapter

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/timeseries"
)

// referenceEntitySummary is the summary as the adapter assembled it before
// the store folded it: the series names, one Range per series summed point
// by point, and one boxed row per entity. The differential test holds the
// store's fold to it.
func referenceEntitySummary(store *timeseries.Store, prefix string, info ExecInfo) (Value, ExecInfo, error) {
	names := store.SeriesNames()
	type key struct{ id, metric string }
	means := make(map[key]float64)
	metricSet := make(map[string]bool)
	idSet := make(map[string]bool)
	var items int64
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := strings.TrimPrefix(name, prefix)
		parts := strings.SplitN(rest, "/", 2)
		if len(parts) != 2 {
			continue
		}
		pts, err := store.Range(name, math.MinInt64/2, math.MaxInt64/2)
		if err != nil {
			return Value{}, info, err
		}
		var sum float64
		for _, p := range pts {
			sum += p.Value
		}
		mean := 0.0
		if len(pts) > 0 {
			mean = sum / float64(len(pts))
		}
		items += int64(len(pts))
		means[key{parts[0], parts[1]}] = mean
		metricSet[parts[1]] = true
		idSet[parts[0]] = true
	}
	metrics := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	ids := make([]string, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	cols := []cast.Column{{Name: "vpid", Type: cast.Int64}}
	for _, m := range metrics {
		cols = append(cols, cast.Column{Name: m + "_mean", Type: cast.Float64})
	}
	s, err := cast.NewSchema(cols...)
	if err != nil {
		return Value{}, info, err
	}
	out := cast.NewBatch(s, len(ids))
	for _, id := range ids {
		pid, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			continue // non-numeric entity ids are skipped
		}
		vals := make([]any, 0, len(cols))
		vals = append(vals, pid)
		for _, m := range metrics {
			vals = append(vals, means[key{id, m}])
		}
		if err := out.AppendRow(vals...); err != nil {
			return Value{}, info, err
		}
	}
	info.RowsIn = items
	info.RowsOut = int64(out.Rows())
	info.Kernels = []KernelCall{{Class: hw.KWindowAgg, Work: hw.Work{Items: items, Bytes: items * 16}, OutBytes: out.ByteSize()}}
	return Value{Batch: out}, info, nil
}

// sameBits reports whether two batches hold the same schema and the same
// values, floats compared by their bits.
func sameBits(t *testing.T, got, want *cast.Batch) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) || got.Rows() != want.Rows() {
		t.Fatalf("summary %s with %d rows, want %s with %d", got.Schema(), got.Rows(), want.Schema(), want.Rows())
	}
	for c := 0; c < want.Schema().Len(); c++ {
		for r := 0; r < want.Rows(); r++ {
			g, gerr := got.Value(r, c)
			w, werr := want.Value(r, c)
			if gerr != nil || werr != nil {
				t.Fatal(gerr, werr)
			}
			if gf, ok := g.(float64); ok {
				if wf, ok := w.(float64); !ok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("row %d column %d: %v, want %v", r, c, g, w)
				}
			} else if g != w {
				t.Fatalf("row %d column %d: %v, want %v", r, c, g, w)
			}
		}
	}
}

// edgeStore holds every naming and bounds case the summary has a rule for.
func edgeStore(t *testing.T) *timeseries.Store {
	t.Helper()
	s := timeseries.New("ts")
	add := func(name string, pts ...timeseries.Point) {
		if err := s.AppendPoints(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	p := func(ts int64, v float64) timeseries.Point { return timeseries.Point{TS: ts, Value: v} }
	// Points outside [MinInt64/2, MaxInt64/2] on both sides; sums that
	// depend on their order.
	add("vitals/1/hr", p(math.MinInt64, 1e9), p(1, 0.1), p(2, 0.7), p(3, 1e17), p(4, -1e17), p(5, 0.3), p(math.MaxInt64, 5))
	add("vitals/1/spo2", p(1, 97.1), p(2, 96.3))
	add("vitals/2/hr", p(1, 71.9)) // entity 2 has no spo2
	add("vitals/10/spo2", p(7, 88.8))
	add("vitals/abc/hr", p(1, 1000)) // non-numeric id: its points still count
	add("vitals//hr", p(1, 3))
	add("vitals/nometric", p(1, 4)) // no metric part
	add("vitals/3/a/b", p(1, 2.5))  // the metric is everything after the first '/'
	add("vitals/4/hr", p(math.MaxInt64/2+1, 9))
	add("vitals/042/hr", p(1, 42))
	add("vitals/42/hr", p(1, 43))
	add("vitals/+5/spo2", p(1, 95))
	add("other/1/hr", p(1, 60))
	return s
}

func TestEntitySummaryEqualsReference(t *testing.T) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(3)), 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		store    *timeseries.Store
		prefixes []string
	}{
		{data.Timeseries, []string{"vitals/", "vitals/1", "vit", "nomatch/"}},
		{edgeStore(t), []string{"vitals/", "vitals/1", "vitals/4/", "other/", "nomatch/"}},
	} {
		a := NewTimeseries("ts", tc.store)
		for _, prefix := range tc.prefixes {
			n := node(ir.OpTSWindow, "ts", map[string]any{"series_prefix": prefix})
			got, gotInfo, err := a.Execute(context.Background(), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, wantInfo, err := referenceEntitySummary(tc.store, prefix, ExecInfo{})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got.Batch, want.Batch)
			if !reflect.DeepEqual(gotInfo, wantInfo) {
				t.Fatalf("prefix %q: info %+v, want %+v", prefix, gotInfo, wantInfo)
			}
			if got, want := Native(n, gotInfo), fmt.Sprintf("EntitySummary(%s*)", prefix); got != want {
				t.Fatalf("prefix %q: native %q, want %q", prefix, got, want)
			}
		}
	}
}

// A metric name too long for a column name fails the summary as it failed
// the reference: the series names come from writes, unchecked.
func TestEntitySummaryLongMetricFails(t *testing.T) {
	s := timeseries.New("ts")
	if err := s.Append("vitals/1/"+strings.Repeat("m", 1<<16), 1, 1); err != nil {
		t.Fatal(err)
	}
	n := node(ir.OpTSWindow, "ts", map[string]any{"series_prefix": "vitals/"})
	_, _, err := NewTimeseries("ts", s).Execute(context.Background(), n, nil)
	_, _, want := referenceEntitySummary(s, "vitals/", ExecInfo{})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestEntitySummaryIsOneCut: a writer appends its k-th point, of value k, to
// series A and then to series B. Any state of the store holds at least as
// many points in A as in B, so a summary that is one cut of it never shows
// B's mean above A's. A summary that reads A, then the 100 series between
// them in name order, then B, each under a lock of its own, shows it often.
func TestEntitySummaryIsOneCut(t *testing.T) {
	s := timeseries.New("ts")
	const seriesA, seriesB = "vitals/1/hr", "vitals/9/hr"
	for i := 0; i < 100; i++ {
		if err := s.Append(fmt.Sprintf("vitals/5%02d/hr", i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(0); k < 1<<18; k++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{seriesA, seriesB} {
				if err := s.Append(name, k, float64(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()
	a := NewTimeseries("ts", s)
	n := node(ir.OpTSWindow, "ts", map[string]any{"series_prefix": "vitals/"})
	for reads := 0; reads < 300; reads++ {
		out, _, err := a.Execute(context.Background(), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := out.Batch.Rows()
		if rows != 102 {
			continue // the writer has not yet appended to both
		}
		ma, _ := out.Batch.Value(0, 1)
		mb, _ := out.Batch.Value(rows-1, 1)
		if ma.(float64) < mb.(float64) {
			t.Fatalf("summary %d: mean(A) %v < mean(B) %v, a state the store never held", reads, ma, mb)
		}
	}
}

// BenchmarkEntitySummary runs the tswindow node over the vitals of a served
// deployment's 2 000 patients (4 000 series of 48 points).
func BenchmarkEntitySummary(b *testing.B) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(8)), 2000)
	if err != nil {
		b.Fatal(err)
	}
	a := NewTimeseries("ts", data.Timeseries)
	n := node(ir.OpTSWindow, "ts", map[string]any{"series_prefix": "vitals/"})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.Execute(ctx, n, nil); err != nil {
			b.Fatal(err)
		}
	}
}
