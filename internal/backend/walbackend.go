package backend

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// recordFormat opens every WAL payload: format u8 | store name (u32 length
// + bytes) | the store's opaque record. Values 1..6 stay unused: the first,
// unversioned layout opened its payloads with a record-type tag in that
// range, and its logs must fail the check on their first record.
const recordFormat byte = 0x10

// defaultSnapshotBytes is the active-segment size that triggers snapshot
// compaction when Config.SnapshotBytes is 0.
const defaultSnapshotBytes = 8 << 20

// walBackend is the WAL + snapshot backend: the native in-memory engines
// with every applied mutation journaled into a segmented write-ahead log
// (fsync-batched group commit), replayed on boot, and compacted into a
// snapshot once the active segment passes the size threshold. Read
// semantics are exactly the memory backend's — durability changes what
// survives, never what a query returns.
type walBackend struct {
	cfg       Config
	snapBytes int64

	mu      sync.Mutex
	stores  map[string]Durable
	w       *wal
	nextSeg uint64
	started bool
	closed  bool
	rec     RecoverStats

	// snapMu serializes checkpoints (forced and background). The background
	// path acquires it with TryLock under d.mu, together with the closed
	// check and wg.Add, so a snapshot goroutine can never be added after
	// Close's wg.Wait has started.
	snapMu         sync.Mutex
	snapshotWrites atomic.Uint64
	snapshotLast   atomic.Int64
	wg             sync.WaitGroup
}

// openWALBackend constructs the "wal" backend over cfg.Dir (created if
// absent). No files are written until Start.
func openWALBackend(cfg Config) (*walBackend, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("backend: wal backend requires a data directory")
	}
	if _, err := ParseSyncPolicy(string(cfg.Sync)); err != nil {
		return nil, err
	}
	if cfg.Sync == "" {
		cfg.Sync = SyncGroup
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	snapBytes := cfg.SnapshotBytes
	if snapBytes == 0 {
		snapBytes = defaultSnapshotBytes
	}
	return &walBackend{cfg: cfg, snapBytes: snapBytes, stores: make(map[string]Durable), nextSeg: 1}, nil
}

// HasState reports whether dir holds recoverable state (a snapshot or any
// non-empty log segment) — the boot-time "recover or seed?" question.
func HasState(dir string) bool {
	if fi, err := os.Stat(filepath.Join(dir, snapFile)); err == nil && fi.Size() > 0 {
		return true
	}
	segs, err := listSegments(dir)
	if err != nil {
		return false
	}
	for _, idx := range segs {
		if fi, err := os.Stat(filepath.Join(dir, segName(idx))); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// Attach implements Backend.
func (d *walBackend) Attach(name string, s Durable) {
	d.mu.Lock()
	d.stores[name] = s
	d.mu.Unlock()
}

// Deprecated: use Attach.
func (d *walBackend) AttachTimeseries(name string, s Durable) { d.Attach(name, s) }

// Deprecated: use Attach.
func (d *walBackend) AttachRelational(name string, s Durable) { d.Attach(name, s) }

// Recover implements Backend: snapshot restore, then WAL replay with
// version-watermark guards (records a snapshot already covers are skipped),
// then one epoch bump per store so post-restart version vectors are
// strictly past every acknowledged pre-crash value. Attached stores must be
// empty. Call before Start.
func (d *walBackend) Recover() (RecoverStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return RecoverStats{}, fmt.Errorf("backend: Recover after Start")
	}
	var rec RecoverStats

	snapSize, ok, err := restoreSnapshot(d.cfg, d.stores)
	if err != nil {
		return rec, fmt.Errorf("backend: load snapshot: %w", err)
	}
	if ok {
		rec.Recovered, rec.SnapshotLoaded = true, true
		d.snapshotLast.Store(snapSize)
	}

	segs, err := listSegments(d.cfg.Dir)
	if err != nil {
		return rec, err
	}
	if n := len(segs); n > 0 {
		d.nextSeg = segs[n-1] + 1
	}
	nbytes, truncated, err := replaySegments(d.cfg.Dir, segs, func(payload []byte) error {
		name, record, err := splitRecord(payload)
		if err != nil {
			return err
		}
		// A record that cannot apply (unattached store, divergent schema) is
		// counted, logged and skipped: recovery restores the longest
		// consistent prefix rather than refusing to boot.
		applied := false
		if s, ok := d.stores[string(name)]; !ok {
			d.cfg.logf("backend: replay skip: store %q not attached", name)
		} else if applied, err = s.Apply(record); err != nil {
			d.cfg.logf("backend: replay skip: store %q: %v", name, err)
		}
		if applied {
			rec.Records++
		} else {
			rec.Skipped++
		}
		return nil
	})
	if err != nil {
		return rec, fmt.Errorf("backend: replay: %w", err)
	}
	rec.Bytes = nbytes
	rec.Truncated = truncated
	// Skipped records are still evidence of previously acknowledged state:
	// a dir replayed under a configuration whose stores don't route (every
	// record skipped, no snapshot) must NOT report Recovered=false, or the
	// caller would seed and Checkpoint over it — compacting away the sealed
	// segments and permanently discarding that data.
	if rec.Records > 0 || rec.Skipped > 0 {
		rec.Recovered = true
	}

	if rec.Recovered {
		for _, s := range d.stores {
			s.BumpVersion()
		}
	}
	d.rec = rec
	d.cfg.logf("backend: recovered snapshot=%t records=%d skipped=%d bytes=%d truncated=%t",
		rec.SnapshotLoaded, rec.Records, rec.Skipped, rec.Bytes, rec.Truncated)
	return rec, nil
}

// Start implements Backend: opens the active log segment and installs the
// journal taps on every attached store. Mutations from here on are
// captured; call after Recover (and after seeding, so seed data lands in
// the first Checkpoint snapshot rather than the log).
func (d *walBackend) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.started {
		return nil
	}
	w, err := openWAL(d.cfg.Dir, d.cfg.Sync, d.nextSeg)
	if err != nil {
		return err
	}
	d.w = w
	d.started = true
	for name, s := range d.stores {
		header := binary.LittleEndian.AppendUint32([]byte{recordFormat}, uint32(len(name)))
		header = append(header, name...)
		s.SetJournal(func(record []byte) {
			w.append(append(header[:len(header):len(header)], record...))
		})
	}
	return nil
}

// splitRecord parses a WAL payload into the store name and the store's
// opaque record. A wrong format byte is a layout this build does not read
// and fails recovery outright; nothing after it can be trusted.
func splitRecord(payload []byte) (name, record []byte, err error) {
	if len(payload) > 0 && payload[0] != recordFormat {
		return nil, nil, fmt.Errorf("%w: wal record format %#x, this build reads %#x", ErrFormat, payload[0], recordFormat)
	}
	if len(payload) < 5 || uint64(len(payload)-5) < uint64(binary.LittleEndian.Uint32(payload[1:])) {
		return nil, nil, fmt.Errorf("%w: wal record header", ErrCorrupt)
	}
	n := 5 + int(binary.LittleEndian.Uint32(payload[1:]))
	return payload[5:n], payload[n:], nil
}

// Barrier implements Backend: block until everything journaled so far is
// durable under the sync policy, then consider triggering a background
// snapshot. The write path calls this before acknowledging a client write,
// so under SyncGroup "acknowledged" means "fsynced".
func (d *walBackend) Barrier(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	w := d.w
	d.mu.Unlock()
	if w == nil {
		return nil
	}
	if err := w.sync(w.tail()); err != nil {
		return err
	}
	d.maybeSnapshot()
	return nil
}

// maybeSnapshot starts a background checkpoint when the active segment has
// outgrown the threshold and none is already running.
func (d *walBackend) maybeSnapshot() {
	if d.snapBytes <= 0 {
		return
	}
	d.mu.Lock()
	run := !d.closed && d.w != nil && d.w.segmentBytes() >= d.snapBytes && d.snapMu.TryLock()
	if run {
		d.wg.Add(1)
	}
	d.mu.Unlock()
	if !run {
		return
	}
	go func() {
		defer d.wg.Done()
		defer d.snapMu.Unlock()
		if err := d.checkpoint(); err != nil {
			d.cfg.logf("backend: background snapshot: %v", err)
		}
	}()
}

// Checkpoint implements Backend: force a snapshot now (waiting out any
// background one first — snapMu serializes checkpoints).
func (d *walBackend) Checkpoint() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.checkpoint()
}

// checkpoint seals the active segment, snapshots every attached store, and
// removes the sealed segments the snapshot now covers. Correctness: a
// journal record is appended only after its mutation applied, so the store
// state read here is a superset of every sealed record; records still
// arriving into the new active segment carry version watermarks past the
// snapshot's and replay skips any overlap.
func (d *walBackend) checkpoint() error {
	d.mu.Lock()
	if d.closed || d.w == nil {
		d.mu.Unlock()
		return ErrClosed
	}
	w, stores := d.w, d.stores
	d.mu.Unlock()

	sealed, err := w.rotate()
	if err != nil {
		return fmt.Errorf("backend: rotate: %w", err)
	}
	size, err := writeSnapshot(d.cfg.Dir, stores)
	if err != nil {
		return fmt.Errorf("backend: write snapshot: %w", err)
	}
	d.snapshotWrites.Add(1)
	d.snapshotLast.Store(size)

	segs, err := listSegments(d.cfg.Dir)
	if err != nil {
		return err
	}
	var old []uint64
	for _, idx := range segs {
		if idx <= sealed {
			old = append(old, idx)
		}
	}
	if err := removeSegments(d.cfg.Dir, old); err != nil {
		return err
	}
	d.cfg.logf("backend: snapshot %d bytes, %d sealed segment(s) compacted", size, len(old))
	return nil
}

// Stats implements Backend: durable.
func (d *walBackend) Stats() Stats {
	d.mu.Lock()
	w, rec, stores := d.w, d.rec, sortedKeys(d.stores)
	d.mu.Unlock()
	st := Stats{
		Kind:            "wal",
		Durable:         true,
		SyncPolicy:      string(d.cfg.Sync),
		Capabilities:    pushdown + ",durable",
		Stores:          stores,
		ReplayRecords:   rec.Records,
		ReplaySkipped:   rec.Skipped,
		ReplayBytes:     rec.Bytes,
		SnapshotWrites:  d.snapshotWrites.Load(),
		SnapshotTrigger: d.snapBytes,
	}
	if rec.Truncated {
		st.ReplayTruncated = 1
	}
	if rec.SnapshotLoaded {
		st.ReplaySnapshot = 1
	}
	st.SnapshotLastBytes = d.snapshotLast.Load()
	if w != nil {
		st.WALAppends = w.appends.Load()
		st.WALBytes = w.bytes.Load()
		st.WALFsyncs = w.fsyncs.Load()
		st.WALErrors = w.errors.Load()
		st.WALSegmentBytes = w.segmentBytes()
	}
	return st
}

// Close implements Backend: detach the journal taps, finish any background
// snapshot, make the log durable and release files.
func (d *walBackend) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	w, stores := d.w, d.stores
	d.mu.Unlock()
	for _, s := range stores {
		s.SetJournal(nil)
	}
	d.wg.Wait()
	if w == nil {
		return nil
	}
	return w.close()
}
