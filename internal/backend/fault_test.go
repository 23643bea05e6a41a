package backend

import (
	"context"
	"errors"
	"io/fs"
	"slices"
	"strings"
	"sync"
	"testing"
)

// errInjected is the error faultDir fails a chosen call with.
var errInjected = errors.New("injected I/O error")

// faultDir is the file-system seam over a real directory. It records every
// call as "op name" ("open wal-00000001.log", "sync snapshot.tmp",
// "syncdir", "rename snapshot.tmp snapshot.db", ...) and fails each call
// its fail func returns an error for.
type faultDir struct {
	osDir
	mu   sync.Mutex
	ops  []string
	fail func(op string) error // called under mu; nil fails nothing
}

func (d *faultDir) do(op string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops = append(d.ops, op)
	if d.fail == nil {
		return nil
	}
	return d.fail(op)
}

// failOn makes every call recorded as one of ops fail; none clears it.
func (d *faultDir) failOn(ops ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fail = func(op string) error {
		if slices.Contains(ops, op) {
			return errInjected
		}
		return nil
	}
}

func (d *faultDir) OpenFile(name string, flag int, perm fs.FileMode) (fsFile, error) {
	if err := d.do("open " + name); err != nil {
		return nil, err
	}
	f, err := d.osDir.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fsFile: f, dir: d, name: name}, nil
}

func (d *faultDir) ReadDir() ([]fs.DirEntry, error) {
	if err := d.do("readdir"); err != nil {
		return nil, err
	}
	return d.osDir.ReadDir()
}

func (d *faultDir) ReadFile(name string) ([]byte, error) {
	if err := d.do("read " + name); err != nil {
		return nil, err
	}
	return d.osDir.ReadFile(name)
}

func (d *faultDir) Rename(from, to string) error {
	if err := d.do("rename " + from + " " + to); err != nil {
		return err
	}
	return d.osDir.Rename(from, to)
}

func (d *faultDir) Remove(name string) error {
	if err := d.do("remove " + name); err != nil {
		return err
	}
	return d.osDir.Remove(name)
}

func (d *faultDir) Truncate(name string, size int64) error {
	if err := d.do("truncate " + name); err != nil {
		return err
	}
	return d.osDir.Truncate(name, size)
}

func (d *faultDir) Sync() error {
	if err := d.do("syncdir"); err != nil {
		return err
	}
	return d.osDir.Sync()
}

// faultFile records and fails the writes and fsyncs of one file of a
// faultDir.
type faultFile struct {
	fsFile
	dir  *faultDir
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.dir.do("write " + f.name); err != nil {
		return 0, err
	}
	return f.fsFile.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.dir.do("writeat " + f.name); err != nil {
		return 0, err
	}
	return f.fsFile.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.dir.do("sync " + f.name); err != nil {
		return err
	}
	return f.fsFile.Sync()
}

// openFaulty opens a wal backend over a faultDir on path with s attached;
// SnapshotBytes -1 keeps background checkpoints out of the recorded calls.
func openFaulty(t *testing.T, path string, s stores) (*walBackend, *faultDir) {
	t.Helper()
	dir := &faultDir{osDir: osDir(path)}
	b, err := openWALBackend(Config{SnapshotBytes: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	attach(b, s)
	return b, dir
}

// startFaulty is openFaulty over a fresh directory, started, with writes
// 0..n acknowledged.
func startFaulty(t *testing.T, s stores, n int) (*walBackend, *faultDir) {
	t.Helper()
	b, dir := openFaulty(t, t.TempDir(), s)
	t.Cleanup(func() { b.Close() })
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	writeMix(t, s, 0, n)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	return b, dir
}

// assertRecovers closes b and recovers its directory through the OS seam:
// the recovered stores must equal a reference holding writes 0..n.
func assertRecovers(t *testing.T, b *walBackend, n int) {
	t.Helper()
	b.Close()
	ref, recovered := newStores(t), newStores(t)
	writeMix(t, ref, 0, n)
	b2, _ := openStarted(t, string(b.dir.(*faultDir).osDir), recovered)
	defer b2.Close()
	assertEquiv(t, ref, recovered)
}

// TestFsyncOrder pins the order of fsyncs that docs/durability.md states:
// the Barrier leader fsyncs the active segment; each created segment is
// followed by a directory fsync; a checkpoint fsyncs the sealed segment
// before it writes the snapshot, fsyncs the temp snapshot, renames it and
// fsyncs the directory before it removes a sealed segment; Close fsyncs.
func TestFsyncOrder(t *testing.T) {
	live := newStores(t)
	b, dir := openFaulty(t, t.TempDir(), live)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	live.kv.Put("a", []byte("1"))
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live.kv.Put("b", []byte("2"))
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range dir.ops {
		if verb, _, _ := strings.Cut(op, " "); slices.Contains([]string{"open", "sync", "syncdir", "rename", "remove"}, verb) {
			got = append(got, op)
		}
	}
	want := []string{
		"open wal-00000001.log", "syncdir", // Start
		"sync wal-00000001.log",            // Barrier
		"open wal-00000002.log", "syncdir", // Checkpoint: rotate
		"sync wal-00000001.log", // the seal
		"open snapshot.tmp", "sync snapshot.tmp", "rename snapshot.tmp snapshot.db", "syncdir",
		"remove wal-00000001.log",
		"sync wal-00000002.log", // Barrier
		"sync wal-00000002.log", // Close
	}
	if !slices.Equal(got, want) {
		t.Fatalf("file-system calls\n got %q\nwant %q", got, want)
	}
}

// TestBarrierFailsAfterIOError: a failed segment write or fsync, and a
// failed seal fsync in a checkpoint's rotate, fail the next Barrier and
// every later one, even once the file system works again.
func TestBarrierFailsAfterIOError(t *testing.T) {
	for _, tc := range []struct {
		name, op, text string
		checkpoint     bool
	}{
		{"write", "write wal-00000001.log", "backend: wal append: ", false},
		{"fsync", "sync wal-00000001.log", "backend: wal fsync: ", false},
		{"seal fsync", "sync wal-00000001.log", "backend: wal seal fsync: ", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := newStores(t)
			b, dir := startFaulty(t, live, 5)
			dir.failOn(tc.op)
			if tc.checkpoint {
				if err := b.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			live.kv.Put("x", []byte("lost"))
			err := b.Barrier(context.Background())
			dir.failOn()
			for i := 0; i < 2; i++ {
				if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), tc.text) {
					t.Fatalf("Barrier %d after a failed %s: %v, want %q wrapping the I/O error", i, tc.op, err, tc.text)
				}
				live.kv.Put("y", []byte("later"))
				err = b.Barrier(context.Background())
			}
			if b.Stats().WALErrors == 0 {
				t.Fatal("the failure was not counted in wal errors")
			}
		})
	}
}

// TestSnapshotRenameFailureKeepsPrevious: a checkpoint whose rename fails
// returns the error, removes the temp file and leaves the previous snapshot
// loadable; every acknowledged write still recovers.
func TestSnapshotRenameFailureKeepsPrevious(t *testing.T) {
	live := newStores(t)
	b, dir := startFaulty(t, live, 10)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeMix(t, live, 10, 20)
	if err := b.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir.failOn("rename snapshot.tmp snapshot.db")
	if err := b.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("Checkpoint with a failed rename: %v", err)
	}
	dir.failOn()
	if _, err := dir.Stat(snapTemp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp snapshot left behind: %v", err)
	}
	ref, prev := newStores(t), newStores(t)
	writeMix(t, ref, 0, 10)
	if _, ok, err := restoreSnapshot(Config{}, dir.osDir, map[string]Durable{"kv": prev.kv, "ts": prev.ts, "db": prev.rel}); !ok || err != nil {
		t.Fatalf("previous snapshot: ok %t, %v", ok, err)
	}
	assertEquiv(t, ref, prev)
	assertRecovers(t, b, 20)
}

// TestCheckpointIOFailure: a checkpoint whose segment create, snapshot
// write, or compaction's listing or remove fails returns the error and
// leaves no temp snapshot, and every acknowledged write still recovers.
func TestCheckpointIOFailure(t *testing.T) {
	for _, tc := range []struct{ op, text string }{
		{"open wal-00000002.log", "backend: rotate: "},
		{"open snapshot.tmp", "backend: write snapshot: "},
		{"write snapshot.tmp", "backend: write snapshot: "},
		{"writeat snapshot.tmp", "backend: write snapshot: "},
		{"sync snapshot.tmp", "backend: write snapshot: "},
		{"readdir", ""},
		{"remove wal-00000001.log", ""},
	} {
		t.Run(tc.op, func(t *testing.T) {
			live := newStores(t)
			b, dir := startFaulty(t, live, 10)
			dir.failOn(tc.op)
			if err := b.Checkpoint(); !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), tc.text) {
				t.Fatalf("Checkpoint: %v, want %q wrapping the I/O error", err, tc.text)
			}
			dir.failOn()
			if _, err := dir.Stat(snapTemp); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("temp snapshot left behind: %v", err)
			}
			assertRecovers(t, b, 10)
		})
	}
}

// TestSnapshotDirSyncFailureKeepsSegments: when the directory fsync after
// the snapshot's rename fails, Checkpoint returns the error and removes no
// sealed segment, so a crash that loses the rename loses no acknowledged
// write.
func TestSnapshotDirSyncFailureKeepsSegments(t *testing.T) {
	live := newStores(t)
	b, dir := startFaulty(t, live, 10)
	renamed := false
	dir.mu.Lock()
	dir.fail = func(op string) error {
		renamed = renamed || strings.HasPrefix(op, "rename ")
		if renamed && op == "syncdir" {
			return errInjected
		}
		return nil
	}
	dir.mu.Unlock()
	if err := b.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("Checkpoint with a failed directory fsync: %v", err)
	}
	dir.failOn()
	if segs, err := listSegments(dir); err != nil || !slices.Equal(segs, []uint64{1, 2}) {
		t.Fatalf("segments after the failed checkpoint: %v %v, want [1 2]", segs, err)
	}
	assertRecovers(t, b, 10)
}

// TestSegmentDirSyncFailure: when the directory fsync after creating a
// segment fails, Start returns the error and opens no log, and a
// checkpoint's rotate returns it and keeps the previous segment active:
// later writes are acknowledged into it and recover.
func TestSegmentDirSyncFailure(t *testing.T) {
	t.Run("start", func(t *testing.T) {
		b, dir := openFaulty(t, t.TempDir(), newStores(t))
		defer b.Close()
		dir.failOn("syncdir")
		if err := b.Start(); !errors.Is(err, errInjected) {
			t.Fatalf("Start: %v", err)
		}
		if err := b.Barrier(context.Background()); err == nil {
			t.Fatal("Barrier after a failed Start acknowledged")
		}
	})
	t.Run("rotate", func(t *testing.T) {
		live := newStores(t)
		b, dir := startFaulty(t, live, 10)
		dir.failOn("syncdir")
		if err := b.Checkpoint(); !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "backend: rotate: ") {
			t.Fatalf("Checkpoint: %v", err)
		}
		dir.failOn()
		writeMix(t, live, 10, 20)
		if err := b.Barrier(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b.w.segIndex != 1 {
			t.Fatalf("active segment %d, want the previous one, 1", b.w.segIndex)
		}
		assertRecovers(t, b, 20)
	})
}

// TestRecoverIOFailure: a failed truncate while repairing a torn segment,
// a failed directory read and a failed read of the snapshot or of a segment
// each fail Recover.
func TestRecoverIOFailure(t *testing.T) {
	for _, tc := range []struct{ op, text string }{
		{"truncate wal-00000001.log", "backend: replay: backend: repair torn segment wal-00000001.log: "},
		{"readdir", ""},
		{"open snapshot.db", "backend: load snapshot: "},
		{"read wal-00000001.log", "backend: replay: "},
	} {
		t.Run(tc.op, func(t *testing.T) {
			path := t.TempDir()
			live := newStores(t)
			b, _ := openStarted(t, path, live)
			writeMix(t, live, 0, 5)
			if err := b.Barrier(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			tearSegmentTail(t, path)
			b2, dir := openFaulty(t, path, newStores(t))
			defer b2.Close()
			dir.failOn(tc.op)
			if _, err := b2.Recover(); !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), tc.text) {
				t.Fatalf("Recover: %v, want %q wrapping the I/O error", err, tc.text)
			}
		})
	}
}
