// Package relational implements the relational data-processing engine of the
// polystore (the Postgres/Oracle role in the paper): heap tables with B-tree
// indexes, the operator kernels (scan, filter, project, hash/merge join,
// group-by, sort, limit) as plain functions from whole input batches to one
// output batch — the unit the Polystore++ middleware dispatches, costs and
// offloads (§III-A1) — and a SQL-subset frontend. Engine.Query runs a
// statement as one loop over its lowered steps (SelectStmt.Steps), each
// step's kernel over the whole output of the step before, and reports one
// OpStats per step; the relational adapter runs IR nodes with the same
// kernels the same way.
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
		btrees: make(map[string]*btree), zones: make([][]zone, schema.Len()), version: 1, journal: &s.journal}
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
// other tables — the per-table data version the subplan cache keys
// surgically-invalidated entries on.
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
	// zones is the zone map: per column, one zone per ChunkRows heap rows
	// (Int64/Timestamp columns; nil for the others). Derived from the heap
	// and never persisted, it is kept by the same hook as the B-trees.
	zones [][]zone
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

// Schema returns the table schema.
func (t *Table) Schema() cast.Schema { return t.schema }

// Insert appends one row.
func (t *Table) Insert(vals ...any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.heap.Rows()
	if err := t.heap.AppendRow(vals...); err != nil {
		return err
	}
	t.version++
	if err := t.indexFrom(row); err != nil {
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

// indexFrom maintains the B-trees and the zone map for the heap rows from
// start on. Every append to the heap ends here — Insert, InsertBatch, WAL
// replay and Restore — and the heap is append-only, so a zone only ever
// widens. Caller holds the write lock.
func (t *Table) indexFrom(start int) error {
	for col, bt := range t.btrees {
		i, err := t.schema.Index(col)
		if err != nil {
			return err
		}
		ints, err := t.heap.Ints(i)
		if err != nil {
			return err
		}
		for r := start; r < len(ints); r++ {
			bt.Insert(ints[r], int32(r))
		}
	}
	for i := range t.zones {
		if ct := t.schema.Col(i).Type; ct == cast.Int64 || ct == cast.Timestamp {
			ints, _ := t.heap.Ints(i) // an integer column by the check above
			t.zones[i] = extendZones(t.zones[i], ints, start)
		}
	}
	return nil
}

// zone is the least and the greatest value of one integer column over one
// ChunkRows-row chunk of the heap.
type zone struct{ min, max int64 }

// admits reports whether some value of the zone can lie in [lo, hi].
func (z zone) admits(lo, hi int64) bool { return z.min <= hi && lo <= z.max }

// extendZones extends zones, one per ChunkRows values of col, over col's
// values from start on.
func extendZones(zones []zone, col []int64, start int) []zone {
	for lo := start; lo < len(col); {
		c := lo / ChunkRows
		if c == len(zones) {
			zones = append(zones, zone{col[lo], col[lo]})
		}
		hi, z := min((c+1)*ChunkRows, len(col)), zones[c]
		for _, v := range col[lo:hi] {
			z.min, z.max = min(z.min, v), max(z.max, v)
		}
		zones[c], lo = z, hi
	}
	return zones
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

// SeekRange chooses the access path of a scan whose consumer filters by pred
// and reads it: it returns the rows the path yields and the path's name, for
// reports (§III-A2). The path is chosen and read under one read lock, so the
// rows are those of one heap snapshot whatever is inserted afterwards. Each
// top-level conjunct of pred is read once (keyRange), as the range of an
// integer column it admits:
//   - the first conjunct on a B-tree-indexed column seeks it: the rows in its
//     key range, in key order, as one selection over the snapshot —
//     IndexScan(<table>.<col>);
//   - otherwise each conjunct narrows the heap to the chunks from the first
//     to the last whose zone admits its range. Chunks left narrower than the
//     heap are read as one view of the snapshot — ZoneScan(<table>.<col>),
//     col the first column that narrowed them;
//   - otherwise the snapshot itself — SeqScan(<table>).
//
// The rows over-approximate pred: the consumer applies it in full.
func (t *Table) SeekRange(pred Expr) (*cast.Batch, string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.heap.Rows()
	chunks := (n + ChunkRows - 1) / ChunkRows
	p := scanPath{t: t, c1: chunks}
	p.read(pred)
	switch {
	case p.seek != nil:
		var rows []int32
		p.seek.Range(p.lo, p.hi, func(_ int64, ids []int32) bool {
			rows = append(rows, ids...)
			return true
		})
		return t.heap.View().Take(rows), "IndexScan(" + t.name + "." + p.col + ")"
	case p.c1-p.c0 < chunks:
		// A range of the heap is its own root: a snapshot, as View is.
		view, _ := t.heap.ViewRange(min(p.c0*ChunkRows, n), min(p.c1*ChunkRows, n)) // in range by construction
		return view, "ZoneScan(" + t.name + "." + p.col + ")"
	}
	return t.heap.View(), "SeqScan(" + t.name + ")"
}

// scanPath is SeekRange's reading of a predicate: the B-tree seek it found,
// or the heap chunks [c0, c1) every conjunct read so far admits.
type scanPath struct {
	t      *Table
	seek   *btree
	col    string // the seek's column, or the first that narrowed the chunks
	lo, hi int64  // the seek's key range
	c0, c1 int
}

// read reads the top-level conjuncts of e left to right, up to the first
// that seeks.
func (p *scanPath) read(e Expr) {
	if b, ok := e.(Bin); ok && b.Op == OpAnd {
		if p.read(b.L); p.seek == nil {
			p.read(b.R)
		}
		return
	}
	col, lo, hi, ok := keyRange(e)
	if !ok {
		return
	}
	if bt := p.t.btrees[col]; bt != nil {
		p.seek, p.col, p.lo, p.hi = bt, col, lo, hi
		return
	}
	i, err := p.t.schema.Index(col)
	if err != nil || p.t.zones[i] == nil {
		return // not a column of the table, or not an integer one
	}
	zones, c0, c1 := p.t.zones[i], p.c0, p.c1
	for c0 < c1 && !zones[c0].admits(lo, hi) {
		c0++
	}
	for c1 > c0 && !zones[c1-1].admits(lo, hi) {
		c1--
	}
	if p.col == "" && c1-c0 < p.c1-p.c0 {
		p.col = col
	}
	p.c0, p.c1 = c0, c1
}

// keyRange reads one conjunct comparing a column with an integer literal,
// written in either order, as the inclusive range [lo, hi] of the column's
// values it admits. ok is false for anything else. The range may
// over-approximate the conjunct: at the int64 limits it saturates.
func keyRange(e Expr) (col string, lo, hi int64, ok bool) {
	bin, isBin := e.(Bin)
	if !isBin {
		return "", 0, 0, false
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
	if !isCol || !isLit || !isInt {
		return "", 0, 0, false
	}
	col = BaseName(ref.Name)
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
// the subplan cache depends on this.
func (t *Table) Snapshot() *cast.Batch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.View()
}
