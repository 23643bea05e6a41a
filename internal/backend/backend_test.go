package backend

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"polystorepp/internal/cast"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
	"polystorepp/internal/timeseries"
)

// stores is one full deployment of the three durable engines.
type stores struct {
	kv  *kvstore.Store
	ts  *timeseries.Store
	rel *relational.Store
}

func newStores(t testing.TB) stores {
	t.Helper()
	rel := relational.NewStore("db")
	tbl, err := rel.CreateTable("events", cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "kind", Type: cast.String},
		cast.Column{Name: "score", Type: cast.Float64},
		cast.Column{Name: "ok", Type: cast.Bool},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateBTreeIndex("id"); err != nil {
		t.Fatal(err)
	}
	return stores{kv: kvstore.New("kv"), ts: timeseries.New("ts"), rel: rel}
}

func attach(b Backend, s stores) {
	b.Attach("kv", s.kv)
	b.Attach("ts", s.ts)
	b.Attach("db", s.rel)
}

// writeMix applies n writes across all three engines, identical for any
// stores value — the workload equivalence tests replay on both sides.
func writeMix(t testing.TB, s stores, lo, hi int) {
	t.Helper()
	tbl, err := s.rel.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		s.kv.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i)))
		if err := s.ts.Append("cpu", int64(i+1)*1000, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(int64(i), fmt.Sprintf("kind-%d", i%3), float64(i)*1.25, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
}

// versions captures the three engines' version counters.
func versions(s stores) [3]uint64 {
	return [3]uint64{s.kv.Version(), s.ts.Version(), s.rel.Version()}
}

// assertEquiv asserts got serves byte-identical reads to want across all
// three engines.
func assertEquiv(t *testing.T, want, got stores) {
	t.Helper()
	wk, wv := want.kv.ScanPrefix("")
	gk, gv := got.kv.ScanPrefix("")
	if !slices.Equal(wk, gk) || !slices.Equal(wv, gv) {
		t.Fatalf("kv: want %d pairs got %d, or they differ", len(wk), len(gk))
	}
	wp, werr := want.ts.Range("cpu", 0, 1<<62)
	gp, gerr := got.ts.Range("cpu", 0, 1<<62)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("ts range: want err %v got %v", werr, gerr)
	}
	if len(wp) != len(gp) {
		t.Fatalf("ts points: want %d got %d", len(wp), len(gp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("ts point[%d]: want %+v got %+v", i, wp[i], gp[i])
		}
	}
	wt, err := want.rel.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := got.rel.Table("events")
	if err != nil {
		t.Fatalf("recovered table: %v", err)
	}
	if !wt.Snapshot().Equal(gt.Snapshot()) {
		t.Fatalf("relational heaps differ: want %d rows got %d", wt.Snapshot().Rows(), gt.Snapshot().Rows())
	}
	if wt.HasBTree("id") != gt.HasBTree("id") {
		t.Fatalf("btree index lost across recovery")
	}
}

// openStarted opens a wal backend over dir, attaches s, recovers and starts.
func openStarted(t *testing.T, dir string, s stores) (Backend, RecoverStats) {
	t.Helper()
	b, err := Open("wal", Config{Dir: dir, Sync: SyncGroup, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	attach(b, s)
	rec, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return b, rec
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, rec := openStarted(t, dir, live)
	if rec.Recovered {
		t.Fatalf("fresh dir reported recovered state: %+v", rec)
	}
	writeMix(t, live, 0, 40)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	preVV := versions(live)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the same writes applied to a never-persisted deployment.
	ref := newStores(t)
	writeMix(t, ref, 0, 40)

	recovered := newStores(t)
	b2, rec2 := openStarted(t, dir, recovered)
	defer b2.Close()
	if !rec2.Recovered || rec2.Records == 0 {
		t.Fatalf("expected replayed records, got %+v", rec2)
	}
	assertEquiv(t, ref, recovered)
	postVV := versions(recovered)
	for i := range preVV {
		if postVV[i] <= preVV[i] {
			t.Fatalf("engine %d version vector did not strictly advance: pre %d post %d", i, preVV[i], postVV[i])
		}
	}
}

func TestDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 25)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.SnapshotWrites != 1 || st.SnapshotLastBytes <= 0 {
		t.Fatalf("expected one snapshot, got %+v", st)
	}
	// Post-checkpoint writes land in the new active segment only.
	writeMix(t, live, 25, 40)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected sealed segments compacted away, have %v", segs)
	}

	ref := newStores(t)
	writeMix(t, ref, 0, 40)
	recovered := newStores(t)
	b2, rec := openStarted(t, dir, recovered)
	defer b2.Close()
	if !rec.SnapshotLoaded {
		t.Fatalf("expected snapshot load, got %+v", rec)
	}
	assertEquiv(t, ref, recovered)
}

func TestDurableAutoSnapshotTrigger(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, err := Open("wal", Config{Dir: dir, Sync: SyncGroup, SnapshotBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	attach(b, live)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		writeMix(t, live, i*5, i*5+5)
		if err := b.Barrier(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().SnapshotWrites; got == 0 {
		t.Fatalf("size trigger never snapshotted (segment bytes %d)", b.Stats().WALSegmentBytes)
	}
	// And the compacted state still recovers whole.
	ref := newStores(t)
	writeMix(t, ref, 0, 150)
	recovered := newStores(t)
	b2, _ := openStarted(t, dir, recovered)
	defer b2.Close()
	assertEquiv(t, ref, recovered)
}

func TestDurableTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 20)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage to the live segment.
	tearSegmentTail(t, dir)

	ref := newStores(t)
	writeMix(t, ref, 0, 20)
	recovered := newStores(t)
	b2, rec := openStarted(t, dir, recovered)
	defer b2.Close()
	if !rec.Truncated {
		t.Fatalf("expected torn-tail truncation, got %+v", rec)
	}
	assertEquiv(t, ref, recovered)
}

// tearSegmentTail appends a partial frame to the newest segment in dir,
// simulating a crash mid-write.
func tearSegmentTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(segs[len(segs)-1])), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestDurableTornSegmentRepairedAcrossRestarts pins the double-crash case:
// after recovery #1 stops at a torn frame in segment N, new writes land in
// segment N+1 — recovery #2 must serve BOTH the pre-tear prefix and the
// post-recovery writes, which requires recovery #1 to have truncated the
// torn segment rather than leaving the torn frame as a permanent replay
// stop.
func TestDurableTornSegmentRepairedAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 10)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tearSegmentTail(t, dir)

	// Restart #1 replays the valid prefix and repairs the torn segment;
	// further acknowledged writes go to the next segment.
	mid := newStores(t)
	b2, rec := openStarted(t, dir, mid)
	if !rec.Truncated {
		t.Fatalf("expected torn-tail truncation, got %+v", rec)
	}
	writeMix(t, mid, 10, 20)
	if err := b2.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart #2 (a clean one) must see both generations.
	ref := newStores(t)
	writeMix(t, ref, 0, 20)
	recovered := newStores(t)
	b3, rec2 := openStarted(t, dir, recovered)
	defer b3.Close()
	if rec2.Truncated {
		t.Fatalf("torn segment not repaired on first recovery: %+v", rec2)
	}
	if rec2.Records == 0 {
		t.Fatalf("second recovery replayed nothing: %+v", rec2)
	}
	assertEquiv(t, ref, recovered)
}

// TestDurableSkippedRecordsStillRecovered pins Recovered=true when the log
// holds records that cannot be applied (unroutable stores after a
// reconfigured boot): the caller must not seed + Checkpoint over them.
func TestDurableSkippedRecordsStillRecovered(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 5)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with no stores attached: every record is unroutable.
	b2, err := Open("wal", Config{Dir: dir, Sync: SyncGroup, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := b2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.Skipped == 0 {
		t.Fatalf("expected all records skipped, got %+v", rec)
	}
	if !rec.Recovered {
		t.Fatalf("skipped-only replay must still report recovered state: %+v", rec)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}

	// The data is still on disk for a correctly configured boot.
	ref := newStores(t)
	writeMix(t, ref, 0, 5)
	recovered := newStores(t)
	b3, rec3 := openStarted(t, dir, recovered)
	defer b3.Close()
	if !rec3.Recovered || rec3.Records == 0 {
		t.Fatalf("expected full recovery after reattach, got %+v", rec3)
	}
	assertEquiv(t, ref, recovered)
}

// TestWALAppendAfterCloseFailsSync pins the sticky-error path: a record
// arriving after close() released the file handle must fail the next sync
// rather than be silently dropped and acknowledged.
func TestWALAppendAfterCloseFailsSync(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, SyncGroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := w.append([]byte("before"))
	if err := w.sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seq = w.append([]byte("after"))
	if err := w.sync(seq); err == nil {
		t.Fatal("append after close must surface a sticky error on sync")
	}
	if w.errors.Load() == 0 {
		t.Fatal("dropped append not counted as an error")
	}
}

// TestOpen pins the two kinds Open knows, the unknown-kind error, and the
// capabilities each reports on /stats.
func TestOpen(t *testing.T) {
	if _, err := Open("bogus", Config{}); err == nil || err.Error() != `backend: unknown kind "bogus" (have [memory wal])` {
		t.Fatalf("unknown kind: %v", err)
	}
	m, err := Open("memory", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Kind != "memory" || st.Durable || st.Capabilities != "predicate,limit,prefix-scan" {
		t.Fatalf("memory backend: %+v", st)
	}
	if _, err := Open("wal", Config{}); err == nil {
		t.Fatal("wal backend without Dir must fail")
	}
	w, err := Open("wal", Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.Kind != "wal" || !st.Durable || st.Capabilities != "predicate,limit,prefix-scan,durable" {
		t.Fatalf("wal backend: %+v", st)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncGroup, SyncInterval, SyncOff} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			live := newStores(t)
			b, err := Open("wal", Config{Dir: dir, Sync: pol, SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			attach(b, live)
			if _, err := b.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := b.Start(); err != nil {
				t.Fatal(err)
			}
			writeMix(t, live, 0, 10)
			if err := b.Barrier(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			ref := newStores(t)
			writeMix(t, ref, 0, 10)
			recovered := newStores(t)
			b2, _ := openStarted(t, dir, recovered)
			defer b2.Close()
			assertEquiv(t, ref, recovered)
		})
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad sync policy must fail")
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if HasState(dir) {
		t.Fatal("empty dir has state")
	}
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 3)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !HasState(dir) {
		t.Fatal("dir with segments reports no state")
	}
}

// TestOversizedRecordRefusedNotAcked pins the frame-limit hole: replay
// treats a frame longer than maxFrame as torn and cuts the segment there, so
// a record that large must be refused at append — the writer's Barrier
// fails — rather than written, acknowledged, and then dropped on restart
// together with every acknowledged record behind it.
func TestOversizedRecordRefusedNotAcked(t *testing.T) {
	dir := t.TempDir()
	live := newStores(t)
	b, _ := openStarted(t, dir, live)
	writeMix(t, live, 0, 10)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}

	blobs, err := live.rel.CreateTable("blobs", cast.MustSchema(cast.Column{Name: "body", Type: cast.String}))
	if err != nil {
		t.Fatal(err)
	}
	huge := cast.NewBatch(blobs.Schema(), 1)
	if err := huge.AppendRow(strings.Repeat("x", maxFrame)); err != nil {
		t.Fatal(err)
	}
	if err := blobs.InsertBatch(huge); err != nil {
		t.Fatal(err)
	}
	if err := b.Barrier(context.Background()); err == nil {
		t.Fatal("Barrier acknowledged a record replay would cut as torn")
	}
	if b.Stats().WALErrors == 0 {
		t.Fatal("refused record not counted in wal errors")
	}
	// Hard stop; everything acknowledged before the refusal must come back
	// from an untorn log.
	ref := newStores(t)
	writeMix(t, ref, 0, 10)
	recovered := newStores(t)
	b2, rec := openStarted(t, dir, recovered)
	defer b2.Close()
	if rec.Truncated {
		t.Fatalf("the refused record still reached the log: %+v", rec)
	}
	assertEquiv(t, ref, recovered)
}

// Files of a data directory written by the parent commit's layout (typed
// per-engine WAL records, one whole-deployment PPSNAP1 snapshot): a kv put,
// a checkpoint, then a timeseries append, a table creation, a row insert and
// a kv delete.
const (
	parentWAL = "260000000b4b2b460302000000747303000000637075e803000000000000000000000000e03f010000000000" +
		"00001f000000e46f648905020000006462010000007401000000020000006964010100000000000000250000" +
		"0010df55b0040200000064620100000074020000000000000001000000010000000107000000000000001400" +
		"00009f314d7e02020000006b76010000006b0200000000000000"
	parentSnapshot = "5050534e4150310ae3000000000000003ed382d80300000001020000006b7610000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000100000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000002020000007473000000000000" +
		"00000302000000646200000000000000000000000001000000010000006b010000000100000000000000c42e" +
		"72cd8555d918000000000000000001000000760000000000000000"
)

// TestParentFormatRejected pins the no-compatibility-reader rule: a data
// directory in the parent layout fails Recover loudly with ErrFormat —
// whichever file is met first — and no store is touched.
func TestParentFormatRejected(t *testing.T) {
	for name, files := range map[string]map[string]string{
		"wal":      {segName(2): parentWAL},
		"snapshot": {snapFile: parentSnapshot},
		"both":     {segName(2): parentWAL, snapFile: parentSnapshot},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, hexBytes := range files {
				raw, err := hex.DecodeString(hexBytes)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if !HasState(dir) {
				t.Fatal("fixture not seen as state")
			}
			s := newStores(t)
			before := versions(s)
			b, err := Open("wal", Config{Dir: dir, SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			attach(b, s)
			if _, err := b.Recover(); !errors.Is(err, ErrFormat) {
				t.Fatalf("Recover over the parent layout: want ErrFormat, got %v", err)
			}
			if after := versions(s); after != before {
				t.Fatalf("a rejected directory moved store versions: %v -> %v", before, after)
			}
			if n := s.kv.Len(); n != 0 {
				t.Fatalf("a rejected directory left %d kv keys", n)
			}
			if n := len(s.ts.SeriesNames()); n != 0 {
				t.Fatalf("a rejected directory left %d series", n)
			}
			if _, err := s.rel.Table("t"); !errors.Is(err, relational.ErrNoTable) {
				t.Fatalf("a rejected directory created its table: %v", err)
			}
			raw, _ := os.ReadFile(filepath.Join(dir, segName(2)))
			if want, _ := hex.DecodeString(files[segName(2)]); !bytes.Equal(raw, want) {
				t.Fatal("a rejected log was repaired (truncated) on disk")
			}
		})
	}
}

// TestStatsNamesStores pins what /stats reports as durable and volatile.
func TestStatsNamesStores(t *testing.T) {
	b, _ := openStarted(t, t.TempDir(), newStores(t))
	defer b.Close()
	st := b.Stats()
	if got := fmt.Sprint(st.Stores); got != "[db kv ts]" {
		t.Fatalf("wal stores = %s", got)
	}
	if got := fmt.Sprint(st.Volatile([]string{"db", "graph", "kv", "txt"})); got != "[graph txt]" {
		t.Fatalf("volatile = %s", got)
	}
	if got := fmt.Sprint(NewMemory().Stats().Volatile([]string{"db", "kv"})); got != "[db kv]" {
		t.Fatalf("memory backend volatile = %s", got)
	}
}
