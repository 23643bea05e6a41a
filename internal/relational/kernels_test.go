package relational

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
)

// afterChecks is a context that reports cancellation from its n+1st Err call
// on: a cancellation that lands mid-kernel, with no clock involved.
type afterChecks struct {
	context.Context
	n int
}

func (c *afterChecks) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestKernelsHonorCancelledContext hands every kernel an already-cancelled
// context: each must answer context.Canceled and nothing else. The merge join
// is also cancelled after its entry check, where only its per-run check can
// notice.
func TestKernelsHonorCancelledContext(t *testing.T) {
	s := newTestStore(t, 300)
	ut, _ := s.Table("users")
	ot, _ := s.Table("orders")
	users, orders := ut.Snapshot(), ot.Snapshot()
	pred := Bin{Op: OpGt, L: ColRef{Name: "age"}, R: Const{V: int64(30)}}
	items := []ProjItem{{E: Bin{Op: OpAdd, L: ColRef{Name: "age"}, R: Const{V: int64(1)}}, Name: "next"}}
	projected, err := ProjectSchema(users.Schema(), items)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []AggSpec{{Fn: AggCount, As: "n"}}
	grouped, err := GroupBySchema(users.Schema(), []string{"name"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		run  func(ctx context.Context) (any, error)
	}{
		{"scan", cancelled, func(ctx context.Context) (any, error) { b, _, err := Scan(ctx, ut, nil); return b, err }},
		{"filter", cancelled, func(ctx context.Context) (any, error) { return Filter(ctx, users, pred, 1) }},
		{"filter/parts=7", cancelled, func(ctx context.Context) (any, error) { return Filter(ctx, users, pred, 7) }},
		{"project", cancelled, func(ctx context.Context) (any, error) { return Project(ctx, users, items, projected, 1) }},
		{"hash-join", cancelled, func(ctx context.Context) (any, error) { return hashJoin(ctx, orders, users, "user_id", "uid", 1) }},
		{"merge-join", cancelled, func(ctx context.Context) (any, error) {
			b, _, err := MergeJoin(ctx, orders, users, "user_id", "uid")
			return b, err
		}},
		{"merge-join/mid-merge", &afterChecks{Context: context.Background(), n: 1}, func(ctx context.Context) (any, error) {
			b, _, err := MergeJoin(ctx, orders, users, "user_id", "uid")
			return b, err
		}},
		{"group-by", cancelled, func(ctx context.Context) (any, error) {
			return GroupBy(ctx, users, []string{"name"}, aggs, grouped, 1)
		}},
		{"sort", cancelled, func(ctx context.Context) (any, error) { return Sort(ctx, users, []OrderItem{{Col: "age"}}, -1) }},
		{"limit", cancelled, func(ctx context.Context) (any, error) { return Limit(ctx, users, 10) }},
	} {
		out, err := tc.run(tc.ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", tc.name, err)
		}
		if v, _ := out.(*cast.Batch); v != nil {
			t.Errorf("%s: returned %d rows beside its error", tc.name, v.Rows())
		}
	}
}

// TestChunkWidths: a filter, a projection and a hash join run at 1, 2, 7
// and 64 partitions — row ranges of every width down to one that does not
// divide the input — return exactly the result of the same kernels over the
// whole input at automatic fan-out; when a row fails, they fail with the
// whole-input run's error — the first failing row's — and return nothing.
func TestChunkWidths(t *testing.T) {
	const rows, bad = 2500, 1500
	in := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "k", Type: cast.Int64},
	), rows)
	for i := 0; i < rows; i++ {
		if err := in.AppendRow(int64(i), int64(i%37)); err != nil {
			t.Fatal(err)
		}
	}
	build := cast.NewBatch(cast.MustSchema(
		cast.Column{Name: "k2", Type: cast.Int64},
		cast.Column{Name: "tag", Type: cast.String},
	), 60)
	for i := 0; i < 60; i++ { // keys 0..29, twice each: some probe rows match twice, some never
		if err := build.AppendRow(int64(i%30), fmt.Sprint("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(ctx context.Context, b *cast.Batch, parts int) (*cast.Batch, error) {
		return hashJoin(ctx, b, build, "k", "k2", parts)
	}
	id, lit := ColRef{Name: "id"}, func(v int64) Expr { return Const{V: v} }
	// 10 / (id - bad) divides by zero on row bad, and on no other.
	failing := Bin{Op: OpDiv, L: lit(10), R: Bin{Op: OpSub, L: id, R: lit(bad)}}
	project := func(items ...ProjItem) kernel { return projectK(t, in.Schema(), items) }
	okProject := project(ProjItem{E: id, Name: "id"}, ProjItem{E: Bin{Op: OpMul, L: id, R: lit(3)}, Name: "triple"})
	badProject := project(ProjItem{E: id, Name: "id"}, ProjItem{E: failing, Name: "q"})
	run := func(chain []kernel, parts int) (out *cast.Batch, err error) {
		out = in
		for _, k := range chain {
			if out, err = k(context.Background(), out, parts); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	for _, tc := range []struct {
		name  string
		chain []kernel
	}{
		{"filter", []kernel{filterK(Bin{Op: OpLt, L: ColRef{Name: "k"}, R: lit(11)})}},
		{"filter/failing-row", []kernel{filterK(Bin{Op: OpLt, L: failing, R: lit(3)})}},
		{"project", []kernel{okProject}},
		{"project/failing-row", []kernel{badProject}},
		{"probe", []kernel{probe}},
		// A probe has no row it can fail on; the filter over it does.
		{"probe/failing-row", []kernel{probe, filterK(Bin{Op: OpLt, L: failing, R: lit(3)})}},
	} {
		want, wantErr := run(tc.chain, 0)
		for _, parts := range partCounts {
			got, err := run(tc.chain, parts)
			if !sameError(err, wantErr) {
				t.Fatalf("%s at parts %d: error %v, the whole input's is %v", tc.name, parts, err, wantErr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("%s at parts %d: returned %d rows beside its error", tc.name, parts, got.Rows())
				}
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("%s at parts %d: returned %d rows, the whole input gives %d", tc.name, parts, got.Rows(), want.Rows())
			}
		}
	}
}
