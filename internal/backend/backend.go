// Package backend is the durability layer under the polystore's native
// in-memory engines: what survives a crash. One backend ships, "wal": every
// applied mutation (kvstore put, timeseries append, relational insert and
// schema change) is journaled as a typed record into a write-ahead log,
// replayed on boot, and compacted into a snapshot once the log passes a size
// threshold. A write is acknowledged only after an fsync covers it (group
// commit). A deployment without a backend keeps the engines as they are:
// nothing survives a restart, and that is the reference the equivalence
// tests hold recovered stores to.
//
// The package knows store names and opaque bytes only: a store takes part by
// implementing Durable, encoding its own records and snapshot section, and
// no engine package is imported here (CI enforces it).
//
// The correctness seam is the version vector. Every store's monotonic
// mutation counter keys the serving layer's result and subplan caches; each
// journal record carries the counter value its mutation produced, each
// snapshot section persists the counters at snapshot time, and recovery
// pins the restored counters to those watermarks plus one epoch bump — so a
// post-restart version vector is always strictly past any value an
// acknowledged pre-crash state ever presented, and cache keys can never
// alias stale pre-restart entries.
package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Errors. ErrFormat marks on-disk state written in a layout this build does
// not read (there is no compatibility reader: an old data directory is
// refused at Recover, never half-loaded); ErrCorrupt marks damaged state.
var (
	ErrClosed  = errors.New("backend: closed")
	ErrFormat  = errors.New("backend: unsupported on-disk format version")
	ErrCorrupt = errors.New("backend: corrupt record")
)

// Durable is what a store implements to be hosted by a durable backend. The
// store owns its bytes — record and snapshot layouts are its private
// business, encoded next to the locks that order its mutations — and the
// backend owns framing, fsync and files.
type Durable interface {
	// SetJournal installs (nil removes) the mutation tap. The store calls fn
	// once per applied mutation, after the apply, under the lock that orders
	// that mutation, with a record carrying the version the mutation
	// produced. fn must be fast and must not call back into the store.
	SetJournal(fn func(record []byte))
	// Apply replays one journaled record during recovery. applied is false
	// when the record's version is not past the restored watermark (the
	// snapshot already covers it); otherwise the mutation is applied and the
	// counter pinned to the record's. An error leaves the versions unchanged.
	Apply(record []byte) (applied bool, err error)
	// Snapshot writes the store's state and version watermarks as one
	// consistent cut: every (state, watermark) pair is read under the lock
	// that orders it. w is buffered. Writers may run concurrently.
	Snapshot(w io.Writer) error
	// Restore loads what Snapshot wrote into the still-empty store and pins
	// its counters to the persisted watermarks. A failed Restore leaves the
	// store undefined; the boot must abort.
	Restore(r io.Reader) error
	// BumpVersion advances the store's version by one with no data change:
	// the epoch bump after any recovery.
	BumpVersion()
}

// Backend is the durable substrate hosting the native engines' stores.
// Lifecycle: Open → Attach each store → Recover (load any persisted state
// into the attached, still-empty stores) → seed if Recover found nothing →
// Start (begin journaling new mutations) → serve, calling Barrier after each
// acknowledged write batch → Close.
type Backend interface {
	// Attach binds a store to the backend under its engine name. Attach
	// before Recover/Start.
	Attach(name string, s Durable)
	// Deprecated: use Attach. Kept for bench/, which is frozen outside
	// benchmark PRs; the next benchmark PR deletes these.
	AttachTimeseries(name string, s Durable)
	// Deprecated: use Attach.
	AttachRelational(name string, s Durable)

	// Recover loads persisted state (snapshot, then WAL replay) into the
	// attached stores and advances their version counters past the persisted
	// watermarks. Recovered reports whether any persisted state existed —
	// when false the caller should seed and Checkpoint.
	Recover() (RecoverStats, error)
	// Start installs the journal taps on the attached stores and opens the
	// active log segment; mutations from here on are captured.
	Start() error
	// Barrier blocks until an fsync covers every mutation journaled so far,
	// and fails while the log is not open. The write path calls it before
	// acknowledging a client write.
	Barrier(ctx context.Context) error
	// Checkpoint forces a snapshot of the attached stores and truncates the
	// log to records newer than it.
	Checkpoint() error
	// Stats reports durability counters for /stats and /metrics.
	Stats() Stats
	// Close stops journaling, makes the log durable and releases files.
	Close() error
}

// RecoverStats describes one boot-time recovery pass.
type RecoverStats struct {
	// Recovered is true when any persisted state (snapshot or log records)
	// was found — including records that could not be applied (Skipped), so
	// a misconfigured boot never seeds and compacts over acknowledged data.
	Recovered bool
	// SnapshotLoaded is true when a snapshot file was loaded.
	SnapshotLoaded bool
	// Records/Skipped/Bytes count replayed log records: applied, skipped as
	// already covered by the snapshot (or unroutable), and payload bytes read.
	Records uint64
	Skipped uint64
	Bytes   uint64
	// Truncated is true when replay stopped at a torn or corrupt record (the
	// expected crash signature: an un-fsynced tail).
	Truncated bool
}

// Stats is the durability counter set a backend exposes. A deployment
// without a backend reports the zero value with Kind "memory".
type Stats struct {
	Kind    string
	Durable bool
	// Stores names the attached stores, sorted: what survives a restart.
	// Every other registered engine is volatile (see Volatile).
	Stores []string

	WALAppends      uint64 // records journaled
	WALBytes        uint64 // framed bytes appended
	WALFsyncs       uint64 // fsync calls issued
	WALErrors       uint64 // write/fsync failures (sticky; Barrier surfaces them)
	WALSegmentBytes int64  // bytes in the active segment (snapshot trigger input)

	ReplayRecords   uint64 // records applied during the last recovery
	ReplaySkipped   uint64 // records skipped (covered by snapshot or unroutable)
	ReplayBytes     uint64 // payload bytes read during the last recovery
	ReplayTruncated uint64 // 1 when replay stopped at a torn tail
	ReplaySnapshot  uint64 // 1 when a snapshot was loaded during recovery

	SnapshotWrites    uint64 // snapshots written since open
	SnapshotLastBytes int64  // size of the most recent snapshot
	SnapshotTrigger   int64  // configured WAL size that forces a snapshot
}

// Volatile returns the engines whose state this backend does not persist:
// those of engines that are not attached stores.
func (s Stats) Volatile(engines []string) []string {
	out := []string{}
	for _, e := range engines {
		if i := sort.SearchStrings(s.Stores, e); i == len(s.Stores) || s.Stores[i] != e {
			out = append(out, e)
		}
	}
	return out
}

// Config parameterizes backend construction.
type Config struct {
	// Dir is the data directory (created if absent); required.
	Dir string
	// Sync names the WAL fsync policy: empty or SyncGroup, the one policy;
	// Open refuses any other name. Only bench/ still sets it.
	Sync string
	// SnapshotBytes is the active-segment size that triggers snapshot
	// compaction. 0 means the 8 MiB default; negative disables automatic
	// snapshots (Checkpoint still works).
	SnapshotBytes int64
	// Logf, when set, receives recovery/compaction progress lines.
	Logf func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Open constructs a backend of the named kind; "wal" is the one kind.
func Open(kind string, cfg Config) (Backend, error) {
	if kind != "wal" {
		return nil, fmt.Errorf("backend: unknown kind %q (have [wal])", kind)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("backend: wal backend requires a data directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return openWALBackend(cfg, osDir(cfg.Dir))
}
