package relational

import (
	"context"
	"fmt"
	"testing"

	"polystorepp/internal/cast"
)

// joinCase describes one probe/build shape the ISSUE pins: empty inputs,
// single rows, every key colliding into one bucket, and heavy key skew.
type joinCase struct {
	name          string
	leftN, rightN int
	leftKey       func(i int) int64
	rightKey      func(i int) int64
}

func joinCases() []joinCase {
	uniform := func(i int) int64 { return int64(i % 37) }
	return []joinCase{
		{name: "empty-both", leftN: 0, rightN: 0, leftKey: uniform, rightKey: uniform},
		{name: "empty-build", leftN: 500, rightN: 0, leftKey: uniform, rightKey: uniform},
		{name: "empty-probe", leftN: 0, rightN: 500, leftKey: uniform, rightKey: uniform},
		{name: "single-row", leftN: 1, rightN: 1, leftKey: uniform, rightKey: uniform},
		{name: "uniform", leftN: 4000, rightN: 900, leftKey: uniform, rightKey: uniform},
		{name: "all-keys-collide", leftN: 300, rightN: 200,
			leftKey:  func(int) int64 { return 7 },
			rightKey: func(int) int64 { return 7 }},
		{name: "skewed", leftN: 3000, rightN: 600,
			// 90% of probe rows and half the build rows share key 0.
			leftKey: func(i int) int64 {
				if i%10 != 0 {
					return 0
				}
				return int64(i % 23)
			},
			rightKey: func(i int) int64 {
				if i%2 == 0 {
					return 0
				}
				return int64(i % 23)
			}},
	}
}

// newJoinTables builds a probe table (id, k, val) and a build table
// (rid, k2, tag) with disjoint column names so the join schema concatenates.
func newJoinTables(t testing.TB, c joinCase) (*Table, *Table) {
	t.Helper()
	store := NewStore("join-par")
	left, err := store.CreateTable("probe", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "k", Type: cast.Int64},
		cast.Column{Name: "val", Type: cast.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.leftN; i++ {
		if err := left.Insert(int64(i), c.leftKey(i), float64(i%89)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	right, err := store.CreateTable("build", cast.MustSchema(
		cast.Column{Name: "rid", Type: cast.Int64},
		cast.Column{Name: "k2", Type: cast.Int64},
		cast.Column{Name: "tag", Type: cast.String},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.rightN; i++ {
		if err := right.Insert(int64(i), c.rightKey(i), fmt.Sprintf("t%d", i%11)); err != nil {
			t.Fatal(err)
		}
	}
	return left, right
}

// seqJoin is the sequential join: build at one partition, probe ChunkRows
// rows at a time at one partition.
func seqJoin(t *testing.T, left, right *cast.Batch, buildParts int) *cast.Batch {
	t.Helper()
	hb, err := BuildHash(context.Background(), left.Schema(), right, "k", "k2", buildParts)
	if err != nil {
		t.Fatal(err)
	}
	return sequential(t, left, hb.Schema(), hb.Probe)
}

// TestParallelHashJoinEquivalence pins build/probe fan-out at 1/2/7/64 and
// checks every partitioning produces exactly the sequential join's output,
// across empty, single-row, all-collide, and skewed keys.
func TestParallelHashJoinEquivalence(t *testing.T) {
	for _, c := range joinCases() {
		t.Run(c.name, func(t *testing.T) {
			lt, rt := newJoinTables(t, c)
			left, right := lt.Snapshot(), rt.Snapshot()
			want := seqJoin(t, left, right, 1)
			for _, parts := range partCounts {
				got, err := hashJoin(context.Background(), left, right, "k", "k2", parts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("parts=%d: join output differs from sequential (%d vs %d rows)",
						parts, got.Rows(), want.Rows())
				}
			}
		})
	}
}

// TestParallelHashJoinStreamingProbe checks a partitioned build under a
// chunk-by-chunk probe — the streamed join — still matches the baseline.
func TestParallelHashJoinStreamingProbe(t *testing.T) {
	lt, rt := newJoinTables(t, joinCases()[4]) // uniform
	left, right := lt.Snapshot(), rt.Snapshot()
	want := seqJoin(t, left, right, 1)
	for _, parts := range partCounts {
		if got := seqJoin(t, left, right, parts); !got.Equal(want) {
			t.Fatalf("parts=%d: streaming-probe output differs from sequential", parts)
		}
	}
}

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

// TestParallelJoinSQLEquivalence checks Engine.Query on a two-table join
// large enough for automatic partitioning, against the rows a plain loop over
// the inserted values joins.
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

// TestJoinLimitKeepsStreamingProbe guards LIMIT early-exit through a join:
// the probe-side scan must stop after a few chunks instead of being probed
// whole (the build side necessarily reads everything).
func TestJoinLimitKeepsStreamingProbe(t *testing.T) {
	store := joinOracleTables(t, "join-limit", 20000, 50)
	out, stats, err := NewEngine(store).Query(context.Background(), "SELECT oid, name FROM orders JOIN users ON uid_fk = uid LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", out.Rows())
	}
	if st := stats[0]; st.Kind != "SeqScan(orders)" || st.RowsIn == 0 || st.RowsIn >= 20000 {
		t.Fatalf("probe scan %+v under LIMIT 10 — the probe did not stop early", st)
	}
	// The join read the probe rows the scan fed it and all 50 build rows.
	if st := stats[1]; st.Kind != "HashJoin(uid_fk=uid)" || st.RowsIn != stats[0].RowsOut+50 {
		t.Fatalf("join %+v after scan %+v", st, stats[0])
	}
}
