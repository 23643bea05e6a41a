package backend

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SyncGroup names group commit, the one WAL fsync policy: a write is
// acknowledged only after an fsync covering it, and concurrent writers share
// one fsync, so the cost amortizes with concurrency instead of paying one
// fsync per write.
const SyncGroup = "group"

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

// maxFrame bounds a single framed payload: replay treats a longer length as
// a torn frame (a defense against decoding garbage as gigabytes), so append
// must never write one.
const maxFrame = 64 << 20

func segName(index uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// wal is a segmented write-ahead log of framed records. Appends write
// (OS-buffered) to the active segment under mu; durability is provided by
// sync(), a leader-elected batched fsync. Rotation (rotate) seals the active
// segment for snapshot compaction.
type wal struct {
	dir string

	// mu guards the active segment handle, sizes and sequence numbers.
	mu       sync.Mutex
	f        *os.File
	segIndex uint64
	size     int64  // bytes in the active segment
	seq      uint64 // last written record sequence
	werr     error  // sticky write failure; Barrier surfaces it

	// flushMu serializes fsync batches (the group-commit leader lock) and
	// rotation, so a segment handle is never closed under an in-flight Sync.
	flushMu sync.Mutex
	synced  atomic.Uint64 // last sequence covered by an fsync

	appends atomic.Uint64
	bytes   atomic.Uint64
	fsyncs  atomic.Uint64
	errors  atomic.Uint64
}

// listSegments returns the existing segment indexes in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// openWAL creates the active segment after the highest existing index.
// Recovery must have consumed the existing segments first.
func openWAL(dir string, nextIndex uint64) (*wal, error) {
	w := &wal{dir: dir, segIndex: nextIndex}
	f, err := os.OpenFile(filepath.Join(dir, segName(nextIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.f = f
	return w, nil
}

// frame wraps payload as [len u32][crc u32][payload].
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// append writes one framed record to the active segment and returns its
// sequence number (to wait on via sync). Write failures are sticky: the
// record may be lost, every later Barrier fails, and the serving layer stops
// acknowledging writes.
func (w *wal) append(payload []byte) uint64 {
	var fr []byte
	if len(payload) <= maxFrame {
		fr = frame(payload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	seq := w.seq
	if w.werr == nil {
		if fr == nil {
			// Replay would classify this frame as torn and cut the segment
			// there, taking every later acknowledged record with it. Refuse
			// it instead: sticky, so the writer's Barrier fails.
			w.werr = fmt.Errorf("backend: wal append: %d-byte record exceeds the %d-byte frame limit", len(payload), maxFrame)
			w.errors.Add(1)
		} else if w.f == nil {
			// A record arriving after close() released the handle is lost;
			// sticky failure so a concurrent Barrier fails instead of
			// acknowledging a write that was never journaled.
			w.werr = fmt.Errorf("backend: wal append: %w", ErrClosed)
			w.errors.Add(1)
		} else if _, err := w.f.Write(fr); err != nil {
			w.werr = fmt.Errorf("backend: wal append: %w", err)
			w.errors.Add(1)
		} else {
			w.size += int64(len(fr))
			w.appends.Add(1)
			w.bytes.Add(uint64(len(fr)))
		}
	}
	return seq
}

// sync blocks until an fsync covers every record with sequence <= seq.
// Concurrent callers share one fsync: whoever takes flushMu first syncs
// through the current tail and the rest find themselves already covered.
func (w *wal) sync(seq uint64) error {
	if w.synced.Load() >= seq {
		return w.writeErr()
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if w.synced.Load() >= seq { // a previous leader's batch covered us
		return w.writeErr()
	}
	w.fsyncLocked()
	return w.writeErr()
}

// fsyncLocked fsyncs the active segment, covering everything written so
// far. Caller holds flushMu. Rotation seals (and fsyncs) old segments under
// flushMu too, so records are never left un-synced in a previous segment.
func (w *wal) fsyncLocked() {
	w.mu.Lock()
	f, top := w.f, w.seq
	w.mu.Unlock()
	if f == nil {
		return
	}
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		if w.werr == nil {
			w.werr = fmt.Errorf("backend: wal fsync: %w", err)
		}
		w.mu.Unlock()
		w.errors.Add(1)
		return
	}
	w.fsyncs.Add(1)
	// Monotonic max: another leader cannot be racing (flushMu held).
	if w.synced.Load() < top {
		w.synced.Store(top)
	}
}

func (w *wal) writeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// rotate seals the active segment (fsynced, closed) and opens the next one,
// returning the sealed segment's index. Every record in sealed segments is
// durable afterwards, which is what lets fsyncLocked touch only the active
// file.
func (w *wal) rotate() (sealed uint64, err error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	old, oldIndex := w.f, w.segIndex
	next := w.segIndex + 1
	nf, ferr := os.OpenFile(filepath.Join(w.dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if ferr != nil {
		w.mu.Unlock()
		return 0, ferr
	}
	w.f = nf
	w.segIndex = next
	w.size = 0
	top := w.seq
	w.mu.Unlock()

	if old != nil {
		if serr := old.Sync(); serr == nil {
			w.fsyncs.Add(1)
			if w.synced.Load() < top {
				w.synced.Store(top)
			}
		} else {
			// The sealed segment holds records that may never reach disk, and
			// no later fsync (of the new, empty active file) covers them.
			// Sticky failure: Barrier must refuse to acknowledge them.
			w.errors.Add(1)
			w.mu.Lock()
			if w.werr == nil {
				w.werr = fmt.Errorf("backend: wal seal fsync: %w", serr)
			}
			w.mu.Unlock()
		}
		old.Close()
	}
	return oldIndex, nil
}

// tail returns the last written record sequence.
func (w *wal) tail() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// segmentBytes returns the active segment's size.
func (w *wal) segmentBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// close fsyncs and closes the active segment.
func (w *wal) close() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	f := w.f
	w.f = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayFn receives one decoded record payload during replay.
type replayFn func(payload []byte) error

// replaySegments reads the framed records of the given segments in order. A
// torn or corrupt frame (the crash signature: an un-fsynced tail) ends that
// segment's replay at its valid prefix; the segment is truncated to that
// prefix on disk and replay continues with the next segment. The repair
// matters across restarts: after a crash the torn segment stops being the
// last one — new writes land in fresh segments — and without it every later
// recovery would stop at the same torn frame and silently drop the
// acknowledged records in those later segments. It returns payload bytes
// consumed and whether any segment was cut short.
func replaySegments(dir string, segs []uint64, fn replayFn) (bytes uint64, truncated bool, err error) {
	for _, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return bytes, truncated, rerr
		}
		off := 0
		torn := false
		for off < len(data) {
			if off+8 > len(data) {
				torn = true
				break
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			crc := binary.LittleEndian.Uint32(data[off+4:])
			if n < 0 || n > maxFrame || off+8+n > len(data) {
				torn = true
				break
			}
			payload := data[off+8 : off+8+n]
			if crc32.ChecksumIEEE(payload) != crc {
				torn = true
				break
			}
			if ferr := fn(payload); ferr != nil {
				return bytes, truncated, ferr
			}
			bytes += uint64(n)
			off += 8 + n
		}
		if torn {
			truncated = true
			if terr := os.Truncate(path, int64(off)); terr != nil {
				// Fail loudly: booting over an unrepaired torn segment would
				// re-lose everything journaled after it on the next restart.
				return bytes, truncated, fmt.Errorf("backend: repair torn segment %s: %w", segName(idx), terr)
			}
		}
	}
	return bytes, truncated, nil
}

// removeSegments deletes the given sealed segments (post-snapshot
// compaction).
func removeSegments(dir string, segs []uint64) error {
	var first error
	for _, idx := range segs {
		if err := os.Remove(filepath.Join(dir, segName(idx))); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}
