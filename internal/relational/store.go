// Package relational implements the relational data-processing engine of the
// polystore (the Postgres/Oracle role in the paper): heap tables with B-tree
// indexes, the operator kernels (scan, filter, project, hash/merge join,
// group-by, sort, limit) as plain functions from whole input batches to one
// output batch — the unit the Polystore++ middleware dispatches, costs and
// offloads (§III-A1) — and a SQL-subset frontend. Engine.Query runs a
// statement as one loop over its lowered steps (SelectStmt.Steps), one kernel
// per step, and reports one OpStats per step; the relational adapter runs IR
// nodes with the same kernels.
package relational

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"polystorepp/internal/cast"
)

// Sentinel errors.
var (
	ErrNoTable    = errors.New("relational: table not found")
	ErrTableExist = errors.New("relational: table already exists")
	ErrNoIndex    = errors.New("relational: no usable index")
	ErrIndexType  = errors.New("relational: column type not indexable this way")
)

// Store is a named collection of tables — one relational database instance
// in the polystore's server pool.
type Store struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*Table
	// version counts schema mutations (table creation); see Version.
	version uint64
	// journal, when installed, receives every applied mutation across the
	// store and its tables as an encoded record (durability tap; see
	// durable.go). Atomic so installation never races hot-path inserts.
	journal journalTap
}

type journalTap = atomic.Pointer[func(record []byte)]

// NewStore returns an empty store with the given instance name.
func NewStore(name string) *Store {
	return &Store{name: name, tables: make(map[string]*Table)}
}

// Name returns the store instance name.
func (s *Store) Name() string { return s.name }

// CreateTable registers an empty table with the schema.
func (s *Store) CreateTable(name string, schema cast.Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExist, name)
	}
	t := s.newTableLocked(name, schema)
	s.version++
	if j := s.journal.Load(); j != nil {
		(*j)(record(opCreateTable, name, s.version, t.heap, ""))
	}
	return t, nil
}

// newTableLocked registers an empty table. It starts at version 1 so its
// creation is itself a visible mutation to table-scoped version queries (a
// missing table reads as 0). Caller holds the store write lock.
func (s *Store) newTableLocked(name string, schema cast.Schema) *Table {
	t := &Table{name: name, schema: schema, heap: cast.NewBatch(schema, 0),
		btrees: make(map[string]*btree), version: 1, journal: &s.journal}
	s.tables[name] = t
	return t
}

// Version returns the store's monotonic data version: the sum of every
// table's mutation count plus schema changes. The serving layer keys result
// caches on it, so any write invalidates results computed over prior state.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.version
	for _, t := range s.tables {
		v += t.Version()
	}
	return v
}

// TableVersion returns the named table's mutation count, or 0 when the
// table does not exist (so creating it later changes the value).
func (s *Store) TableVersion(name string) uint64 {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return 0
	}
	return t.Version()
}

// VersionOf sums the mutation counts of exactly the named tables. Because
// each count is monotonic, the sum is a valid version for that table set:
// it changes on every mutation of a named table and never on mutations of
// other tables — the per-table data version the serving layer keys
// surgically-invalidated result caches on.
func (s *Store) VersionOf(tables []string) uint64 {
	var v uint64
	for _, t := range tables {
		v += s.TableVersion(t)
	}
	return v
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Table is a heap of rows plus secondary indexes. Concurrent readers are
// safe; writers take the table lock.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema cast.Schema
	heap   *cast.Batch
	// btrees maps column name -> ordered index (Int64/Timestamp columns).
	btrees map[string]*btree
	// version counts mutations (inserts and index builds); see Version.
	version uint64
	// journal points at the owning store's mutation tap (see durable.go).
	journal *journalTap
}

// Version returns the table's monotonic mutation count.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() cast.Schema { return t.schema }

// Rows returns the current row count.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Rows()
}

// Insert appends one row.
func (t *Table) Insert(vals ...any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.heap.Rows()
	if err := t.heap.AppendRow(vals...); err != nil {
		return err
	}
	t.version++
	if err := t.indexRow(row); err != nil {
		return err
	}
	t.journalInsert(row)
	return nil
}

// journalInsert journals the heap rows from start on — the ones the caller
// just appended — as typed columns, a zero-copy view of the heap. Caller
// holds the write lock and has bumped the version.
func (t *Table) journalInsert(start int) {
	if j := t.journal.Load(); j != nil {
		rows, _ := t.heap.ViewRange(start, t.heap.Rows()) // in range by construction
		(*j)(record(opInsert, t.name, t.version, rows, ""))
	}
}

// InsertBatch appends all rows of b (schema-checked).
func (t *Table) InsertBatch(b *cast.Batch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.heap.Rows()
	if err := t.appendLocked(b); err != nil {
		return err
	}
	t.version++
	t.journalInsert(start)
	return nil
}

// appendLocked appends all rows of b to the heap and indexes them. Caller
// holds the write lock and owns the version bump.
func (t *Table) appendLocked(b *cast.Batch) error {
	start := t.heap.Rows()
	if err := t.heap.AppendBatch(b); err != nil {
		return err
	}
	return t.indexFrom(start)
}

// indexFrom maintains all indexes for the heap rows from start on. Caller
// holds the write lock.
func (t *Table) indexFrom(start int) error {
	for r := start; r < t.heap.Rows(); r++ {
		if err := t.indexRow(r); err != nil {
			return err
		}
	}
	return nil
}

// indexRow maintains all indexes for newly appended row r. Caller holds the
// write lock.
func (t *Table) indexRow(r int) error {
	for col, bt := range t.btrees {
		i, err := t.schema.Index(col)
		if err != nil {
			return err
		}
		ints, err := t.heap.Ints(i)
		if err != nil {
			return err
		}
		bt.Insert(ints[r], int32(r))
	}
	return nil
}

// CreateBTreeIndex builds an ordered index on an Int64/Timestamp column,
// indexing existing rows.
func (t *Table) CreateBTreeIndex(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.buildBTreeLocked(col); err != nil {
		return err
	}
	t.version++
	if j := t.journal.Load(); j != nil {
		(*j)(record(opBTreeIndex, t.name, t.version, nil, col))
	}
	return nil
}

func (t *Table) buildBTreeLocked(col string) error {
	i, err := t.schema.Index(col)
	if err != nil {
		return err
	}
	ct := t.schema.Col(i).Type
	if ct != cast.Int64 && ct != cast.Timestamp {
		return fmt.Errorf("%w: btree on %s column %q", ErrIndexType, ct, col)
	}
	bt := newBTree()
	ints, err := t.heap.Ints(i)
	if err != nil {
		return err
	}
	for r, v := range ints {
		bt.Insert(v, int32(r))
	}
	t.btrees[col] = bt
	return nil
}

// HasBTree reports whether col has an ordered index.
func (t *Table) HasBTree(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.btrees[col]
	return ok
}

// SeekRange chooses the access path of a scan whose consumer filters by pred:
// the first top-level conjunct comparing a B-tree-indexed column of t with an
// integer literal, written in either order, becomes the inclusive key range
// [lo, hi] on that column. ok is false when nothing is seekable and the scan
// reads the heap. The range may over-approximate pred — the consumer applies
// pred in full.
func (t *Table) SeekRange(pred Expr) (col string, lo, hi int64, ok bool) {
	bin, isBin := pred.(Bin)
	if !isBin {
		return "", 0, 0, false
	}
	if bin.Op == OpAnd {
		if col, lo, hi, ok = t.SeekRange(bin.L); ok {
			return col, lo, hi, true
		}
		return t.SeekRange(bin.R)
	}
	ref, isCol := bin.L.(ColRef)
	lit, isLit := bin.R.(Const)
	op := bin.Op
	if !isCol || !isLit {
		// <lit> op <col> reads as <col> flipped-op <lit>.
		ref, isCol = bin.R.(ColRef)
		lit, isLit = bin.L.(Const)
		op = flipCmp(op)
	}
	v, isInt := lit.V.(int64)
	col = BaseName(ref.Name)
	if !isCol || !isLit || !isInt || !t.HasBTree(col) {
		return "", 0, 0, false
	}
	switch op {
	case OpEq:
		return col, v, v, true
	case OpLt:
		// Saturated: no key is below MinInt64, and [MinInt64, MinInt64]
		// over-approximates the empty answer the consumer's pred restores.
		return col, math.MinInt64, max(v, math.MinInt64+1) - 1, true
	case OpLe:
		return col, math.MinInt64, v, true
	case OpGt:
		return col, min(v, math.MaxInt64-1) + 1, math.MaxInt64, true
	case OpGe:
		return col, v, math.MaxInt64, true
	}
	return "", 0, 0, false
}

// flipCmp mirrors an ordering comparison; every other operator is its own
// mirror.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Snapshot returns a read-only view of the heap frozen at the current row
// count. Concurrent inserts never disturb it (append-only storage), so a
// snapshot taken at one data version keeps showing exactly that version —
// the serving layer's result cache depends on this.
func (t *Table) Snapshot() *cast.Batch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.View()
}

// SnapshotRange returns the row ids with lo <= col <= hi from the B-tree
// index, in ascending key order, together with the heap snapshot the ids
// index, both taken under one read of the table, so every id is a row of the
// snapshot whatever is inserted afterwards.
func (t *Table) SnapshotRange(col string, lo, hi int64) (*cast.Batch, []int32, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bt, ok := t.btrees[col]
	if !ok {
		return nil, nil, fmt.Errorf("%w: column %q", ErrNoIndex, col)
	}
	var out []int32
	bt.Range(lo, hi, func(_ int64, rows []int32) bool {
		out = append(out, rows...)
		return true
	})
	return t.heap.View(), out, nil
}
