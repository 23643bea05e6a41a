package backend

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp/internal/cast"
)

// TestWALReplayEquivalence is the restart-correctness pin: ingest across all
// three durable engines, hard-stop mid-batch (no Close, no final fsync —
// the file handle is simply abandoned, as a SIGKILL leaves it), reopen the
// directory, and assert the recovered deployment serves exactly what a
// never-crashed deployment serves, with version vectors strictly past every
// value the pre-crash deployment ever presented.
func TestWALReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)

	// Acknowledged batch: barriered, so group commit has fsynced it.
	writeMix(t, live, 0, 30)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Mid-batch tail: applied and journaled (OS-buffered) but never
	// barriered — the writes in flight when the process dies. In-process
	// the page cache preserves them, so replay sees the full sequence; what
	// the test pins is that recovery handles an unsealed, un-fsynced tail.
	writeMix(t, live, 30, 45)
	preVV := versions(live)
	// Hard stop: no Close. b's handle is abandoned like a killed process's.
	_ = b

	// Reference deployment: the same writes, never crashed.
	ref := newStores(t)
	writeMix(t, ref, 0, 45)

	recovered := newStores(t)
	b2, rec := openStarted(t, dir, recovered)
	defer b2.Close()
	if !rec.Recovered || rec.Records == 0 {
		t.Fatalf("expected replay, got %+v", rec)
	}
	assertEquiv(t, ref, recovered)

	// Version vectors must land strictly past every pre-crash value: a
	// post-restart cache key can never alias one from the killed process.
	postVV := versions(recovered)
	for i, pre := range preVV {
		if postVV[i] <= pre {
			t.Fatalf("engine %d version did not strictly advance across crash: pre %d post %d", i, pre, postVV[i])
		}
	}
}

// TestWALReplayEquivalenceConcurrentWriters runs the same pin under
// concurrent multi-engine write load (the -race payoff): writers on all
// three engines race their journal taps and the group-commit leader, then
// the recovered state must equal a sequential reference re-application of
// exactly the operations that were applied.
func TestWALReplayEquivalenceConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)

	// Per-writer disjoint workloads: own key prefix, own series, unique row
	// ids — the interleaving cannot change the final state, only the order
	// journal records land in the log.
	const writers, perWriter = 8, 20
	apply := func(s stores, w int) error {
		tbl, err := s.rel.Table("events")
		if err != nil {
			return err
		}
		for i := 0; i < perWriter; i++ {
			s.kv.Put(fmt.Sprintf("w%d-k%03d", w, i), []byte(fmt.Sprintf("v%d-%d", w, i)))
			if err := s.ts.Append(fmt.Sprintf("cpu%d", w), int64(i+1)*1000, float64(w*1000+i)); err != nil {
				return err
			}
			if err := tbl.Insert(int64(w*perWriter+i), fmt.Sprintf("kind-%d", w), float64(i), i%2 == 0); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := apply(live, w); err != nil {
				errs <- err
				return
			}
			errs <- b.Barrier(context.Background())
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Hard stop.
	_ = b

	ref := newStores(t)
	for w := 0; w < writers; w++ {
		if err := apply(ref, w); err != nil {
			t.Fatal(err)
		}
	}

	recovered := newStores(t)
	b2, rec := openStarted(t, dir, recovered)
	defer b2.Close()
	if !rec.Recovered {
		t.Fatalf("expected replay, got %+v", rec)
	}
	// kv and ts state is order-independent and must match the sequential
	// reference exactly.
	wk, wv := ref.kv.ScanPrefix("")
	gk, gv := recovered.kv.ScanPrefix("")
	if len(gk) != writers*perWriter || !slices.Equal(wk, gk) || !slices.Equal(wv, gv) {
		t.Fatalf("kv: want %d pairs got %d, or they differ", len(wk), len(gk))
	}
	for w := 0; w < writers; w++ {
		wp, werr := ref.ts.Range(fmt.Sprintf("cpu%d", w), 0, 1<<62)
		gp, gerr := recovered.ts.Range(fmt.Sprintf("cpu%d", w), 0, 1<<62)
		if werr != nil || gerr != nil || len(wp) != len(gp) {
			t.Fatalf("ts cpu%d: want %d (%v) got %d (%v)", w, len(wp), werr, len(gp), gerr)
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("ts cpu%d point[%d]: want %+v got %+v", w, i, wp[i], gp[i])
			}
		}
	}
	// The relational heap's row order depends on writer interleaving, so
	// compare against the live (pre-crash) table: replay must reproduce the
	// exact sequence the journal captured.
	lt, err := live.rel.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := recovered.rel.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if !lt.Snapshot().Equal(gt.Snapshot()) {
		t.Fatalf("relational heap diverged from pre-crash state: %d vs %d rows", lt.Snapshot().Rows(), gt.Snapshot().Rows())
	}
}

// Per-writer deterministic operations for TestSnapshotUnderWritersEquivalence:
// operation i of writer w touches its own keys, series and row ids, so a
// store's state is fixed by how many operations of each writer reached it.
func putKV(s stores, w, i int) {
	s.kv.Put(fmt.Sprintf("w%d-k%04d", w, i), []byte(fmt.Sprintf("v%d-%d", w, i)))
}

func appendTS(s stores, w, i int) error {
	return s.ts.Append(fmt.Sprintf("cpu%d", w), int64(i+1)*1000, float64(w*100000+i))
}

// insertRows appends operation i's two rows as one batch: a multi-row WAL
// record, so a half-applied operation would show as an odd row count.
func insertRows(s stores, w, i int) error {
	tbl, err := s.rel.Table("events")
	if err != nil {
		return err
	}
	b := cast.NewBatch(tbl.Schema(), 2)
	for r := 0; r < 2; r++ {
		if err := b.AppendRow(int64(2*i+r), fmt.Sprintf("w%d", w), float64(i), r == 0); err != nil {
			return err
		}
	}
	return tbl.InsertBatch(b)
}

// writerRows returns the ids of writer w's rows in heap order.
func writerRows(t *testing.T, s stores, w int) []int64 {
	t.Helper()
	tbl, err := s.rel.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	heap := tbl.Snapshot()
	ids, _ := heap.Ints(0)
	kinds, _ := heap.Strings(1)
	var out []int64
	for r, k := range kinds {
		if k == fmt.Sprintf("w%d", w) {
			out = append(out, ids[r])
		}
	}
	return out
}

// copyDir copies dir's files while b keeps running — the bench's crash-copy
// idiom: a compaction may replace the snapshot or delete a segment mid-copy,
// so the copy is retried until none overlapped it.
func copyDir(t *testing.T, b Backend, dir string) string {
	t.Helper()
	for attempt := 0; attempt < 1000; attempt++ {
		dst := t.TempDir()
		before := b.Stats().SnapshotWrites
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if os.IsNotExist(err) {
				ok = false
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if ok && b.Stats().SnapshotWrites == before {
			return dst
		}
	}
	t.Fatal("no copy completed between compactions")
	return ""
}

// TestSnapshotUnderWritersEquivalence is the pin the other two suites lack:
// snapshots race the writers. Writers on all three engines run while forced
// checkpoints interleave; mid-run the directory is copied without Close,
// recovered into fresh stores, and must hold every write acknowledged before
// the copy began, equal the never-crashed reference cut to the same
// per-writer prefixes, sit strictly past the live version vector, and come
// back identical from a second restart.
func TestSnapshotUnderWritersEquivalence(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	defer b.Close()

	const writers, perWriter = 4, 150
	var acked [writers]atomic.Int64
	half := make(chan struct{}, writers) // one send per writer, at its midpoint
	errs := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				putKV(live, w, i)
				err := appendTS(live, w, i)
				if err == nil {
					err = insertRows(live, w, i)
				}
				if err == nil {
					err = b.Barrier(context.Background())
				}
				if err != nil {
					errs <- err
					return
				}
				acked[w].Store(int64(i + 1))
				if i == perWriter/2 {
					half <- struct{}{}
				}
			}
		}()
	}
	writersDone := make(chan struct{})
	checkpointerDone := make(chan struct{})
	go func() {
		defer close(checkpointerDone)
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			if err := b.Checkpoint(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond) // leave the copy a gap between compactions
		}
	}()

	for w := 0; w < writers; w++ {
		select {
		case <-half:
		case err := <-errs:
			t.Fatal(err)
		}
	}
	var ackedAtCopy [writers]int64
	for w := range ackedAtCopy {
		ackedAtCopy[w] = acked[w].Load()
	}
	liveVV := versions(live)
	crash := copyDir(t, b, dir)
	wg.Wait()
	close(writersDone)
	<-checkpointerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if b.Stats().SnapshotWrites == 0 {
		t.Fatal("no checkpoint ran")
	}

	recovered := newStores(t)
	b2, rec := openStarted(t, crash, recovered)
	if !rec.Recovered {
		t.Fatalf("expected recovery, got %+v", rec)
	}
	// How much of each writer reached each engine; the reference is cut to
	// exactly that.
	ref := newStores(t)
	for w := 0; w < writers; w++ {
		kvKeys, _ := recovered.kv.ScanPrefix(fmt.Sprintf("w%d-", w))
		nKV := len(kvKeys)
		pts, _ := recovered.ts.Range(fmt.Sprintf("cpu%d", w), math.MinInt64, math.MaxInt64) // a series never written is absent: 0 points
		nTS := len(pts)
		rows := writerRows(t, recovered, w)
		if len(rows)%2 != 0 {
			t.Fatalf("writer %d: %d rows recovered, a two-row insert was split", w, len(rows))
		}
		for engine, n := range map[string]int{"kv": nKV, "ts": nTS, "rel": len(rows) / 2} {
			if int64(n) < ackedAtCopy[w] {
				t.Fatalf("writer %d %s: %d operations recovered, %d were acknowledged before the copy", w, engine, n, ackedAtCopy[w])
			}
		}
		for i := 0; i < nKV; i++ {
			putKV(ref, w, i)
		}
		for i := 0; i < nTS; i++ {
			if err := appendTS(ref, w, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(rows)/2; i++ {
			if err := insertRows(ref, w, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSameKVTS := func(want, got stores) {
		t.Helper()
		wk, wv := want.kv.ScanPrefix("")
		gk, gv := got.kv.ScanPrefix("")
		if !slices.Equal(wk, gk) || !slices.Equal(wv, gv) {
			t.Fatalf("kv differs: want %d pairs got %d", len(wk), len(gk))
		}
		for w := 0; w < writers; w++ {
			wp, _ := want.ts.Range(fmt.Sprintf("cpu%d", w), 0, 1<<62)
			gp, _ := got.ts.Range(fmt.Sprintf("cpu%d", w), 0, 1<<62)
			if fmt.Sprint(wp) != fmt.Sprint(gp) {
				t.Fatalf("ts cpu%d: want %d points got %d", w, len(wp), len(gp))
			}
		}
	}
	assertSameKVTS(ref, recovered)
	for w := 0; w < writers; w++ {
		// Heap order across writers depends on the interleaving; within one
		// writer it must be the order the reference inserted.
		if want, got := writerRows(t, ref, w), writerRows(t, recovered, w); fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("writer %d rows: want %v got %v", w, want, got)
		}
	}
	recoveredVV := versions(recovered)
	for i := range liveVV {
		if recoveredVV[i] <= liveVV[i] {
			t.Fatalf("engine %d version not strictly past the live one: live %d recovered %d", i, liveVV[i], recoveredVV[i])
		}
	}

	// Second restart, nothing written in between: identical state.
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	again := newStores(t)
	b3, rec3 := openStarted(t, crash, again)
	defer b3.Close()
	if rec3.Truncated {
		t.Fatalf("first recovery left a torn segment behind: %+v", rec3)
	}
	assertSameKVTS(recovered, again)
	rt, _ := recovered.rel.Table("events")
	at, _ := again.rel.Table("events")
	if !rt.Snapshot().Equal(at.Snapshot()) {
		t.Fatalf("relational heap changed across the second restart: %d vs %d rows", rt.Snapshot().Rows(), at.Snapshot().Rows())
	}
	for i, v := range versions(again) {
		if v < recoveredVV[i] {
			t.Fatalf("engine %d version went backwards across the second restart: %d then %d", i, recoveredVV[i], v)
		}
	}
}
