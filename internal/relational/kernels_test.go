package relational

import (
	"context"
	"errors"
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
		{"filter", cancelled, func(ctx context.Context) (any, error) { return Filter(ctx, users, pred) }},
		{"project", cancelled, func(ctx context.Context) (any, error) { return Project(ctx, users, items, projected) }},
		{"hash-join", cancelled, func(ctx context.Context) (any, error) { return hashJoin(ctx, orders, users, "user_id", "uid") }},
		{"merge-join", cancelled, func(ctx context.Context) (any, error) {
			b, _, err := MergeJoin(ctx, orders, users, "user_id", "uid")
			return b, err
		}},
		{"merge-join/mid-merge", &afterChecks{Context: context.Background(), n: 1}, func(ctx context.Context) (any, error) {
			b, _, err := MergeJoin(ctx, orders, users, "user_id", "uid")
			return b, err
		}},
		{"group-by", cancelled, func(ctx context.Context) (any, error) {
			return GroupBy(ctx, users, []string{"name"}, aggs, grouped)
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
