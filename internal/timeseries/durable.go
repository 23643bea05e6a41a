// Durability surface: the store implements backend.Durable. It encodes and
// decodes its own journal records and snapshot section here, next to the
// lock that orders them; the backend frames, fsyncs and files opaque bytes
// and never learns this layout.
package timeseries

import (
	"fmt"
	"io"

	"polystorepp/internal/cast"
)

// SetJournal installs (or, with nil, removes) the append journal. fn
// receives one encoded record per applied append, under the store write
// lock: it must be fast and must not call back into the store. Install it
// after any bulk load or recovery so seed data is captured by snapshots
// rather than re-journaled.
func (s *Store) SetJournal(fn func(record []byte)) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// record encodes one applied append: series str | ts i64 | value f64 |
// version u64. The version is the store's post-apply mutation count; appends
// bump it under the write lock, so records carry strictly increasing
// versions — Apply uses them as log sequence numbers to skip records a
// snapshot already covers.
func record(series string, ts int64, v float64, version uint64) []byte {
	var enc cast.Encoder
	enc.Grow(4 + len(series) + 24)
	enc.Str(series)
	enc.I64(ts)
	enc.F64(v)
	enc.U64(version)
	return enc.Bytes()
}

// Apply replays one journaled append during recovery. It returns false when
// the record is already covered by the restored state (version not past the
// store counter); otherwise the store counter is pinned to the record's,
// keeping post-recovery version vectors identical to the pre-crash
// acknowledged state.
func (s *Store) Apply(rec []byte) (bool, error) {
	d := cast.DecodeBytes(rec)
	series, ts, v, version := d.Str(), d.I64(), d.F64(), d.U64()
	if err := d.Finish(); err != nil {
		return false, fmt.Errorf("timeseries: %q record: %w", s.name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if version <= s.version {
		return false, nil
	}
	if _, err := s.seriesLocked(series).append([]Point{{TS: ts, Value: v}}); err != nil {
		return false, err
	}
	s.version = version
	return true, nil
}

// Snapshot writes the store's section: version u64 | series count u32 | per
// series name str, chunk count u32, and per chunk one blob of (ts i64, value
// f64) points. Only chunk headers are copied under the read lock — together
// with the mutation count, so the pair is a consistent cut; chunks grow
// append-only, so the copies stay valid views while the points are decoded
// and written outside it.
func (s *Store) Snapshot(w io.Writer) error {
	type view struct {
		name   string
		chunks []chunk
	}
	s.mu.RLock()
	views := make([]view, 0, len(s.series))
	for name, sr := range s.series {
		v := view{name: name, chunks: make([]chunk, len(sr.chunks))}
		for i, c := range sr.chunks {
			v.chunks[i] = *c
		}
		views = append(views, v)
	}
	version := s.version
	s.mu.RUnlock()

	var enc cast.Encoder
	enc.U64(version)
	enc.U32(uint32(len(views)))
	for _, v := range views {
		enc.Str(v.name)
		enc.U32(uint32(len(v.chunks)))
		for i := range v.chunks {
			c := &v.chunks[i]
			enc.U32(uint32(16 * len(c.values))) // blob length
			c.walk(func(ts int64, val float64) {
				enc.I64(ts)
				enc.F64(val)
			})
			if _, err := w.Write(enc.Bytes()); err != nil {
				return err
			}
			enc.Reset()
		}
	}
	_, err := w.Write(enc.Bytes())
	return err
}

// Restore loads a Snapshot section into an empty store, re-encoding each
// series and pinning the mutation count to the persisted watermark. Each
// chunk's points are appended as one batch, so the chunk they land in is
// sized once, from the blob's length. Call before SetJournal.
func (s *Store) Restore(r io.Reader) error {
	d := cast.NewDecoder(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	version := d.U64()
	var pts []Point
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		name := d.Str()
		sr := s.seriesLocked(name)
		for chunks := d.U32(); chunks > 0 && d.Err() == nil; chunks-- {
			blob := d.Blob() // one bulk read; its points are then sliced out in place
			dec := cast.DecodeBytes(blob)
			pts = pts[:0]
			for i := 0; i < len(blob)/16; i++ {
				pts = append(pts, Point{TS: dec.I64(), Value: dec.F64()})
			}
			if _, err := sr.append(pts); err != nil {
				return fmt.Errorf("timeseries: restore %q series %q: %w", s.name, name, err)
			}
			if err := dec.Finish(); err != nil { // a blob is whole 16-byte points
				return fmt.Errorf("timeseries: restore %q series %q: %w", s.name, name, err)
			}
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("timeseries: restore %q: %w", s.name, err)
	}
	s.version = max(s.version, version)
	return nil
}

// BumpVersion advances the store's mutation count by one without any data
// change: the recovery epoch bump. See kvstore.BumpVersion for the
// rationale — the persisted watermark may trail the pre-crash in-memory
// counter, and recovery moves strictly past it.
func (s *Store) BumpVersion() {
	s.mu.Lock()
	s.version++
	s.mu.Unlock()
}
