// Durability surface: the store implements backend.Durable. It encodes and
// decodes its own journal records and snapshot section here, next to the
// store and table locks that order them; rows travel as typed columns in
// cast's binary pipe format — the migrator's — never boxed to values. The
// backend frames, fsyncs and files opaque bytes and never learns this
// layout.
package relational

import (
	"fmt"
	"io"
	"sort"

	"polystorepp/internal/cast"
)

// Journal record: op u8 | table str | version u64 | body. The version is the
// counter the mutation bumped, read immediately after the apply under the
// lock that ordered it: the table's mutation count for inserts and index
// builds, the store's schema count for table creation. Records for one
// table therefore carry strictly increasing versions — Apply uses them as
// per-table log sequence numbers to skip records a snapshot already covers.
const (
	opCreateTable byte = iota + 1 // body: zero-row batch carrying the schema
	opInsert                      // body: the appended rows as one batch
	opBTreeIndex                  // body: column str
	opHashIndex                   // reserved: written by builds that kept hash indexes; Apply refuses it
)

// SetJournal installs (or, with nil, removes) the mutation journal for the
// store and every table it ever creates. fn receives one encoded record per
// applied mutation while the store or table lock is held, so it must be
// fast and must not call back into the store. Install it after any bulk
// load or recovery so seed data is captured by snapshots rather than
// re-journaled.
func (s *Store) SetJournal(fn func(record []byte)) {
	if fn == nil {
		s.journal.Store(nil)
		return
	}
	s.journal.Store(&fn)
}

// record encodes one applied mutation; the body is rows when non-nil, else
// col.
func record(op byte, table string, version uint64, rows *cast.Batch, col string) []byte {
	var enc cast.Encoder
	if rows != nil {
		enc.Grow(64 + len(table) + (32+9*rows.Rows())*rows.Schema().Len())
	}
	enc.U8(op)
	enc.Str(table)
	enc.U64(version)
	if rows != nil {
		// Writing into an Encoder cannot fail, and a schema that reached a
		// table is encodable.
		_ = cast.WriteBinary(&enc, rows)
	} else {
		enc.Str(col)
	}
	return enc.Bytes()
}

// Apply replays one journaled mutation during recovery. It returns false
// when the record is already covered by restored state (the table exists,
// or its version is not behind the record's); otherwise the counter the
// mutation bumped is pinned to the record's, keeping post-recovery version
// vectors identical to the pre-crash acknowledged state.
func (s *Store) Apply(rec []byte) (bool, error) {
	d := cast.DecodeBytes(rec)
	op, table, version := d.U8(), d.Str(), d.U64()
	if op == opCreateTable {
		empty := d.Batch()
		if err := d.Finish(); err != nil {
			return false, fmt.Errorf("relational: %q record: %w", s.name, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.tables[table]; ok {
			return false, nil
		}
		s.newTableLocked(table, empty.Schema())
		s.version = max(s.version+1, version)
		return true, nil
	}
	if d.Err() != nil {
		return false, fmt.Errorf("relational: %q record: %w", s.name, d.Err())
	}
	t, err := s.Table(table)
	if err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if version <= t.version {
		return false, nil
	}
	switch op {
	case opInsert:
		// Straight into the heap, against the table's schema: no schema or
		// batch is built per record, and rows of another shape fail here.
		start := t.heap.Rows()
		d.AppendTo(t.heap)
		if err = d.Finish(); err != nil {
			t.heap.Truncate(start)
		} else {
			err = t.indexFrom(start)
		}
	case opBTreeIndex:
		col := d.Str()
		if err = d.Finish(); err == nil {
			err = t.buildBTreeLocked(col)
		}
	default: // opHashIndex included: replay names what it cannot rebuild instead of passing over it
		err = fmt.Errorf("%w: op %d", cast.ErrCodec, op)
	}
	if err != nil {
		return false, fmt.Errorf("relational: %q record: %w", s.name, err)
	}
	t.version = version
	return true, nil
}

// Snapshot writes the store's section: schema version u64 | table count u32
// | per table name str, version u64, btree columns, a reserved empty list
// (the hash columns of builds that kept hash indexes), heap as one
// pipe-format batch. Each table's heap view, version and index list are
// captured together under its read lock, so the triple is a consistent cut;
// the heap is append-only, so the view streams out after the lock is
// released. Indexes are rebuilt on Restore, not stored.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	names := sortedKeys(s.tables)
	storeVersion := s.version
	s.mu.RUnlock()
	var enc cast.Encoder
	enc.U64(storeVersion)
	enc.U32(uint32(len(names)))
	for _, name := range names {
		t, err := s.Table(name)
		if err != nil {
			return err // unreachable: tables are never dropped
		}
		t.mu.RLock()
		heap, version := t.heap.View(), t.version
		btrees := sortedKeys(t.btrees)
		t.mu.RUnlock()
		enc.Str(name)
		enc.U64(version)
		enc.U32(uint32(len(btrees)))
		for _, c := range btrees {
			enc.Str(c)
		}
		enc.U32(0) // reserved hash-index list
		if _, err := w.Write(enc.Bytes()); err != nil {
			return err
		}
		enc.Reset()
		if err := cast.WriteBinary(w, heap); err != nil {
			return err
		}
	}
	_, err := w.Write(enc.Bytes())
	return err
}

// Restore loads a Snapshot section into an empty store: tables recreated,
// heaps bulk-loaded, indexes rebuilt, and every version counter pinned to
// its persisted watermark. A table that already exists is reused when it is
// still empty (the boot code pre-created the schema before recovery); a
// table that already holds rows is a real conflict and fails the restore.
// Call before SetJournal.
func (s *Store) Restore(r io.Reader) error {
	d := cast.NewDecoder(r)
	storeVersion := d.U64()
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		name, version := d.Str(), d.U64()
		var btrees []string
		for k := d.U32(); k > 0 && d.Err() == nil; k-- {
			btrees = append(btrees, d.Str())
		}
		if hashes := d.U32(); hashes != 0 && d.Err() == nil {
			return fmt.Errorf("relational: restore %q table %q: %w: %d hash indexes, which this build cannot rebuild", s.name, name, cast.ErrCodec, hashes)
		}
		heap := d.Batch()
		if d.Err() != nil {
			break
		}
		if err := s.restoreTable(name, version, heap, btrees); err != nil {
			return fmt.Errorf("relational: restore %q table %q: %w", s.name, name, err)
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("relational: restore %q: %w", s.name, err)
	}
	s.mu.Lock()
	s.version = max(s.version, storeVersion)
	s.mu.Unlock()
	return nil
}

func (s *Store) restoreTable(name string, version uint64, heap *cast.Batch, btrees []string) error {
	s.mu.Lock()
	t, ok := s.tables[name]
	if !ok {
		t = s.newTableLocked(name, heap.Schema())
	}
	s.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.heap.Rows() != 0 {
		return fmt.Errorf("already holds %d rows", t.heap.Rows())
	}
	if err := t.appendLocked(heap); err != nil {
		return err
	}
	for _, col := range btrees {
		if err := t.buildBTreeLocked(col); err != nil {
			return fmt.Errorf("btree %q: %w", col, err)
		}
	}
	t.version = max(t.version, version)
	return nil
}

// BumpVersion advances the store's schema mutation count by one without any
// data change: the recovery epoch bump. See kvstore.BumpVersion for the
// rationale — the persisted watermark may trail the pre-crash in-memory
// counter, and recovery moves strictly past it.
func (s *Store) BumpVersion() {
	s.mu.Lock()
	s.version++
	s.mu.Unlock()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
