// Package cast implements the universal data model of the Polystore++
// system — the "CAST" layer of BigDAWG terminology that every byte crossing
// an engine boundary travels through.
//
// The central type is Batch: a typed, columnar collection of rows. Engines
// produce and consume batches; the data migrator serializes them; hardware
// kernels stream them. The package also defines Schema/Column metadata and
// value-level helpers (comparison, key rendering) shared by join, sort and
// group-by implementations across the repository.
//
// Ownership: a batch is mutable only while its producer is building it
// (AppendRow, AppendBatch, Truncate). Once handed on — returned from an
// operator, emitted to a sink, published to a cache — it is immutable, so
// hand-offs are by reference and View, ViewRange, Project, HConcat and
// BatchOf share column storage. Only a table heap keeps growing while
// visible, append-only under the contract View states. The full rules:
// docs/architecture.md, "Batch immutability and ownership".
//
// Immutability is also what lets Take copy nothing: it returns a batch that
// remembers (source columns, selection), and a column is gathered by the
// first reader that asks for its dense slice (Ints, Floats, Strings, Bools,
// Value, Row, AppendKey, Comparator, the codecs) — once, behind a sync.Once,
// because a published batch is read from many goroutines. ViewRange, Take,
// Project, HConcat and ByteSize never gather; AppendBatch and AppendJSONRows
// read through the selection for just the rows they copy or emit. A reader
// that knows nothing of selections therefore pays a gather, never reads a
// wrong value. A selection-backed batch keeps its source alive: Compact
// returns the same rows in storage of their own, which is what a long-lived
// holder (a cache) should keep.
package cast

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Type identifies the physical type of a column. Enums start at 1 so the
// zero value is invalid and misuse is caught early.
type Type int

// Supported column types.
const (
	Int64 Type = iota + 1
	Float64
	String
	Bool
	// Timestamp is an int64 count of nanoseconds since the Unix epoch. It is
	// kept distinct from Int64 so cross-model conversions (e.g. into the
	// timeseries store) know which column is the time axis.
	Timestamp
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Timestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Valid reports whether t is one of the declared column types.
func (t Type) Valid() bool { return t >= Int64 && t <= Timestamp }

// Column describes a single column: a name unique within its schema and a
// physical type.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Schemas are treated as immutable:
// all mutating helpers return fresh copies.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// Sentinel errors returned by this package.
var (
	ErrColumnNotFound = errors.New("cast: column not found")
	ErrTypeMismatch   = errors.New("cast: type mismatch")
	ErrSchemaMismatch = errors.New("cast: schema mismatch")
	ErrRowOutOfRange  = errors.New("cast: row index out of range")
	ErrDuplicateName  = errors.New("cast: duplicate column name")
	ErrBadValue       = errors.New("cast: value not representable in column type")
)

// NewSchema builds a schema from the given columns. It returns an error when
// a column name repeats or a type is invalid.
func NewSchema(cols ...Column) (Schema, error) {
	// The binary pipe format (codec.go) counts columns and name bytes in a
	// u16; a schema it could not carry is refused here, once.
	if len(cols) > math.MaxUint16 {
		return Schema{}, fmt.Errorf("cast: %d columns exceed the wire limit", len(cols))
	}
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if !c.Type.Valid() {
			return Schema{}, fmt.Errorf("cast: column %q: invalid type %d", c.Name, int(c.Type))
		}
		if len(c.Name) > math.MaxUint16 {
			return Schema{}, fmt.Errorf("cast: column name of %d bytes exceeds the wire limit", len(c.Name))
		}
		if _, dup := byName[c.Name]; dup {
			return Schema{}, fmt.Errorf("%w: %q", ErrDuplicateName, c.Name)
		}
		byName[c.Name] = i
	}
	own := make([]Column, len(cols))
	copy(own, cols)
	return Schema{cols: own, byName: byName}, nil
}

// MustSchema is NewSchema for statically-known schemas in tests and
// generators; it panics on error and must not be used with dynamic input.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s Schema) Col(i int) Column { return s.cols[i] }

// Index returns the position of the named column.
func (s Schema) Index(name string) (int, error) {
	if i, ok := s.byName[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrColumnNotFound, name)
}

// Has reports whether the schema contains the named column.
func (s Schema) Has(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Equal reports whether two schemas have identical column lists.
func (s Schema) Equal(o Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Project returns a schema containing only the named columns, in the given
// order.
func (s Schema) Project(names ...string) (Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, err := s.Index(n)
		if err != nil {
			return Schema{}, err
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...)
}

// Concat returns the concatenation of two schemas. Duplicate names are
// rejected with ErrDuplicateName.
func (s Schema) Concat(o Schema) (Schema, error) {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, o.cols...)
	return NewSchema(cols...)
}

// String renders the schema as "(name type, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// column is the typed storage of one column. Exactly one backing slice is in
// use, selected by the column type — or none, while sel is set.
type column struct {
	ints  []int64 // Int64 and Timestamp
	flts  []float64
	strs  []string
	bools []bool
	// sel marks a column Take has not gathered. Copies of the column (Project,
	// HConcat, View) share it, so whoever reads first gathers for all.
	sel *selected
}

// selected is a column as Take leaves it: rows rows of the dense column src.
// Both are immutable; col is written once, inside once, and done says it is
// there for the readers that only want to know (ViewRange, Take, the
// read-through loops).
type selected struct {
	src  column
	rows []int32
	once sync.Once
	done atomic.Bool
	col  column
}

// force gathers the column, if no one has yet, and returns it dense.
func (s *selected) force(t Type) *column {
	s.once.Do(func() {
		switch t {
		case Int64, Timestamp:
			s.col.ints = gather(s.src.ints, s.rows)
		case Float64:
			s.col.flts = gather(s.src.flts, s.rows)
		case String:
			s.col.strs = gather(s.src.strs, s.rows)
		case Bool:
			s.col.bools = gather(s.src.bools, s.rows)
		}
		s.done.Store(true)
	})
	return &s.col
}

func gather[T any](src []T, rows []int32) []T {
	out := make([]T, len(rows))
	for j, r := range rows {
		out[j] = src[r]
	}
	return out
}

// read returns the column's dense storage and the selection to read it
// through — nil when the column is dense or has been gathered. It never
// gathers.
func (c *column) read() (*column, []int32) {
	switch s := c.sel; {
	case s == nil:
		return c, nil
	case s.done.Load():
		return &s.col, nil
	default:
		return &s.src, s.rows
	}
}

// col returns column i dense, gathering it first if it is selection-backed.
func (b *Batch) col(i int) *column {
	c := &b.cols[i]
	if c.sel != nil {
		return c.sel.force(b.schema.cols[i].Type)
	}
	return c
}

// mapped derives a batch's selections from another's, one result per distinct
// input: the columns one Take produced share a selection, and so must theirs.
type mapped struct{ from, to []int32 }

func (m *mapped) get(from []int32, f func([]int32) []int32) []int32 {
	if !sameRows(m.from, from) {
		m.from, m.to = from, f(from)
	}
	return m.to
}

// sameRows reports whether a and b are one selection vector — the same
// storage, not equal contents. A selection in use is never empty.
func sameRows(a, b []int32) bool { return len(a) == len(b) && &a[0] == &b[0] }

func (c *column) grow(t Type, n int) {
	switch t {
	case Int64, Timestamp:
		c.ints = grown(c.ints, n)
	case Float64:
		c.flts = grown(c.flts, n)
	case String:
		c.strs = grown(c.strs, n)
	case Bool:
		c.bools = grown(c.bools, n)
	}
}

// grown returns s with capacity for at least n elements.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// Batch is a columnar collection of rows sharing one schema. The zero value
// is unusable; construct batches with NewBatch.
type Batch struct {
	schema Schema
	cols   []column
	rows   int
}

// NewBatch returns an empty batch with the given schema and capacity hint.
func NewBatch(s Schema, capacity int) *Batch {
	b := &Batch{schema: s, cols: make([]column, s.Len())}
	if capacity > 0 {
		for i := range b.cols {
			b.cols[i].grow(s.Col(i).Type, capacity)
		}
	}
	return b
}

// Schema returns the batch schema.
func (b *Batch) Schema() Schema { return b.schema }

// Rows returns the number of rows currently stored.
func (b *Batch) Rows() int { return b.rows }

// AppendRow appends one row given as one value per column. Accepted dynamic
// types per column type: Int64/Timestamp ← int64 or int; Float64 ← float64;
// String ← string; Bool ← bool.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != b.schema.Len() {
		return fmt.Errorf("%w: got %d values for %d columns", ErrSchemaMismatch, len(vals), b.schema.Len())
	}
	for i, v := range vals {
		if err := b.appendVal(i, v); err != nil {
			// Roll back the columns already appended for this row.
			for j := 0; j < i; j++ {
				b.truncCol(j, b.rows)
			}
			return err
		}
	}
	b.rows++
	return nil
}

func (b *Batch) appendVal(i int, v any) error {
	c := &b.cols[i]
	t := b.schema.Col(i).Type
	switch t {
	case Int64, Timestamp:
		switch x := v.(type) {
		case int64:
			c.ints = append(c.ints, x)
		case int:
			c.ints = append(c.ints, int64(x))
		default:
			return fmt.Errorf("%w: column %q wants %s, got %T", ErrBadValue, b.schema.Col(i).Name, t, v)
		}
	case Float64:
		switch x := v.(type) {
		case float64:
			c.flts = append(c.flts, x)
		case int:
			c.flts = append(c.flts, float64(x))
		case int64:
			c.flts = append(c.flts, float64(x))
		default:
			return fmt.Errorf("%w: column %q wants %s, got %T", ErrBadValue, b.schema.Col(i).Name, t, v)
		}
	case String:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("%w: column %q wants %s, got %T", ErrBadValue, b.schema.Col(i).Name, t, v)
		}
		c.strs = append(c.strs, x)
	case Bool:
		x, ok := v.(bool)
		if !ok {
			return fmt.Errorf("%w: column %q wants %s, got %T", ErrBadValue, b.schema.Col(i).Name, t, v)
		}
		c.bools = append(c.bools, x)
	default:
		return fmt.Errorf("cast: corrupt schema type %d", int(t))
	}
	return nil
}

func (b *Batch) truncCol(i, n int) {
	c := &b.cols[i]
	switch b.schema.Col(i).Type {
	case Int64, Timestamp:
		c.ints = c.ints[:n]
	case Float64:
		c.flts = c.flts[:n]
	case String:
		c.strs = c.strs[:n]
	case Bool:
		c.bools = c.bools[:n]
	}
}

// Truncate drops the rows from n on — the undo of an append that failed
// part-way. Views taken before the append are unaffected.
func (b *Batch) Truncate(n int) {
	for i := range b.cols {
		b.truncCol(i, n)
	}
	b.rows = n
}

// Ints returns the backing int64 slice for an Int64/Timestamp column. The
// slice aliases batch storage; callers must not grow it.
func (b *Batch) Ints(col int) ([]int64, error) {
	t := b.schema.Col(col).Type
	if t != Int64 && t != Timestamp {
		return nil, fmt.Errorf("%w: column %d is %s, not int64/timestamp", ErrTypeMismatch, col, t)
	}
	return b.col(col).ints, nil
}

// Floats returns the backing float64 slice for a Float64 column.
func (b *Batch) Floats(col int) ([]float64, error) {
	if t := b.schema.Col(col).Type; t != Float64 {
		return nil, fmt.Errorf("%w: column %d is %s, not float64", ErrTypeMismatch, col, t)
	}
	return b.col(col).flts, nil
}

// Strings returns the backing string slice for a String column.
func (b *Batch) Strings(col int) ([]string, error) {
	if t := b.schema.Col(col).Type; t != String {
		return nil, fmt.Errorf("%w: column %d is %s, not string", ErrTypeMismatch, col, t)
	}
	return b.col(col).strs, nil
}

// Bools returns the backing bool slice for a Bool column.
func (b *Batch) Bools(col int) ([]bool, error) {
	if t := b.schema.Col(col).Type; t != Bool {
		return nil, fmt.Errorf("%w: column %d is %s, not bool", ErrTypeMismatch, col, t)
	}
	return b.col(col).bools, nil
}

// Value returns the value at (row, col) boxed as any.
func (b *Batch) Value(row, col int) (any, error) {
	if row < 0 || row >= b.rows {
		return nil, fmt.Errorf("%w: %d of %d", ErrRowOutOfRange, row, b.rows)
	}
	c := b.col(col)
	switch b.schema.Col(col).Type {
	case Int64, Timestamp:
		return c.ints[row], nil
	case Float64:
		return c.flts[row], nil
	case String:
		return c.strs[row], nil
	case Bool:
		return c.bools[row], nil
	}
	return nil, fmt.Errorf("cast: corrupt schema type")
}

// Row materializes row i as a []any, one element per column.
func (b *Batch) Row(i int) ([]any, error) {
	if i < 0 || i >= b.rows {
		return nil, fmt.Errorf("%w: %d of %d", ErrRowOutOfRange, i, b.rows)
	}
	out := make([]any, b.schema.Len())
	for c := range out {
		v, err := b.Value(i, c)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// AppendBatch appends all rows of src (which must have an equal schema). A
// selection-backed column of src is gathered straight into b, not into src.
func (b *Batch) AppendBatch(src *Batch) error {
	if !b.schema.Equal(src.schema) {
		return fmt.Errorf("%w: %s vs %s", ErrSchemaMismatch, b.schema, src.schema)
	}
	for i := range b.cols {
		d := &b.cols[i]
		c, rows := src.cols[i].read()
		switch b.schema.Col(i).Type {
		case Int64, Timestamp:
			d.ints = appendRows(d.ints, c.ints, rows)
		case Float64:
			d.flts = appendRows(d.flts, c.flts, rows)
		case String:
			d.strs = appendRows(d.strs, c.strs, rows)
		case Bool:
			d.bools = appendRows(d.bools, c.bools, rows)
		}
	}
	b.rows += src.rows
	return nil
}

// appendRows appends src — all of it, or its rows rows when rows is set.
func appendRows[T any](dst, src []T, rows []int32) []T {
	if rows == nil {
		return append(dst, src...)
	}
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, src[r])
	}
	return dst
}

// View returns a read-only batch sharing b's column storage, frozen at b's
// current length. Safe to read while b keeps growing append-only: appends
// either write beyond the view's length (invisible to it) or reallocate the
// backing array (the view keeps the old one); existing elements are never
// written in place. The view must not be mutated, and callers appending to
// b concurrently must synchronize the View call itself against appends (the
// relational table takes its lock).
func (b *Batch) View() *Batch {
	cols := make([]column, len(b.cols))
	copy(cols, b.cols)
	return &Batch{schema: b.schema, cols: cols, rows: b.rows}
}

// ViewRange returns a read-only view of rows [lo, hi) sharing b's column
// storage — no data is copied. It carries the same aliasing contract as
// View (safe against append-only growth of b, must not be mutated); the
// backing slices are capacity-clamped so even an erroneous append to the
// view cannot clobber b's rows. Partition-parallel scans use it to hand each
// worker a zero-copy row range. A selection-backed column is not gathered:
// the view takes a copy of its part of the selection (a short view must not
// keep a long selection alive), or, once some reader has gathered the
// column, a plain range of the result.
func (b *Batch) ViewRange(lo, hi int) (*Batch, error) {
	if lo < 0 || hi > b.rows || lo > hi {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrRowOutOfRange, lo, hi, b.rows)
	}
	out := &Batch{schema: b.schema, cols: make([]column, len(b.cols)), rows: hi - lo}
	var narrowed mapped
	for i := range b.cols {
		c, rows := b.cols[i].read()
		if rows != nil {
			if hi-lo == b.rows {
				out.cols[i] = b.cols[i] // all of it: one gather serves both
			} else if lo < hi {
				out.cols[i].sel = &selected{src: *c, rows: narrowed.get(rows, func(rows []int32) []int32 {
					return slices.Clone(rows[lo:hi])
				})}
			}
			continue
		}
		switch b.schema.Col(i).Type {
		case Int64, Timestamp:
			out.cols[i].ints = c.ints[lo:hi:hi]
		case Float64:
			out.cols[i].flts = c.flts[lo:hi:hi]
		case String:
			out.cols[i].strs = c.strs[lo:hi:hi]
		case Bool:
			out.cols[i].bools = c.bools[lo:hi:hi]
		}
	}
	return out, nil
}

// ForEachChunk calls fn with consecutive zero-copy row-range views of at
// most size rows each, in row order, stopping at the first error. The views
// carry ViewRange's aliasing contract (read-only, safe against append-only
// growth). The migration pipe uses it to cut a batch into an ordered
// sequence of chunks whose concatenation is exactly the batch. An empty batch yields no calls; size < 1 yields one view of the
// whole batch.
func (b *Batch) ForEachChunk(size int, fn func(chunk *Batch) error) error {
	if b.rows == 0 {
		return nil
	}
	if size < 1 {
		size = b.rows
	}
	for lo := 0; lo < b.rows; lo += size {
		hi := lo + size
		if hi > b.rows {
			hi = b.rows
		}
		view, err := b.ViewRange(lo, hi)
		if err != nil {
			return err
		}
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

// Slice returns a new batch holding rows [lo, hi). Data is copied so the
// result is independent of the receiver.
func (b *Batch) Slice(lo, hi int) (*Batch, error) {
	view, err := b.ViewRange(lo, hi)
	if err != nil {
		return nil, err
	}
	out := NewBatch(b.schema, hi-lo)
	return out, out.AppendBatch(view)
}

// NewBatchRows returns a batch of n zero-valued rows.
func NewBatchRows(s Schema, n int) *Batch {
	b := NewBatch(s, n)
	b.Truncate(n) // lengthens each zeroed column to its capacity
	return b
}

// Take returns the rows of a selection vector, in order, copying none of
// them: every column remembers (b's storage, sel) and is gathered by its
// first reader (see the package comment). sel must index b — kernels build
// it from b's own row numbers — and belongs to the result from here on. A
// column of b that is itself still ungathered is not gathered to serve the
// new selection; the two selections are composed.
func (b *Batch) Take(sel []int32) *Batch {
	if len(sel) == 0 {
		return NewBatch(b.schema, 0)
	}
	out := &Batch{schema: b.schema, cols: make([]column, len(b.cols)), rows: len(sel)}
	lazy := make([]selected, len(b.cols))
	var composed mapped
	for i := range b.cols {
		c, rows := b.cols[i].read()
		lazy[i].src, lazy[i].rows = *c, sel
		if rows != nil {
			lazy[i].rows = composed.get(rows, func(rows []int32) []int32 { return gather(rows, sel) })
		}
		out.cols[i].sel = &lazy[i]
	}
	return out
}

// Compact returns b's rows in storage of their own: every selection-backed
// column gathered (once — b's other holders see the same result) and neither
// the selection nor its source referenced from the returned batch. A batch
// with no such column is returned itself.
func (b *Batch) Compact() *Batch {
	out := b
	for i := range b.cols {
		if b.cols[i].sel == nil {
			continue
		}
		if out == b {
			out = &Batch{schema: b.schema, cols: slices.Clone(b.cols), rows: b.rows}
		}
		out.cols[i] = *b.col(i)
	}
	return out
}

// Project returns a batch of only the named columns, sharing their storage.
func (b *Batch) Project(names ...string) (*Batch, error) {
	s, err := b.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	out := &Batch{schema: s, cols: make([]column, len(names)), rows: b.rows}
	for j, n := range names {
		out.cols[j] = b.cols[b.schema.byName[n]]
	}
	return out, nil
}

// BatchOf assembles a batch from finished columns: cols[i] is the []int64
// (Int64 and Timestamp), []float64, []string or []bool of s.Col(i), all of
// one length. The batch adopts the slices; the caller must not write to them
// again.
func BatchOf(s Schema, cols ...any) (*Batch, error) {
	if len(cols) != s.Len() {
		return nil, fmt.Errorf("%w: got %d columns for %d", ErrSchemaMismatch, len(cols), s.Len())
	}
	b := &Batch{schema: s, cols: make([]column, len(cols))}
	for i, c := range cols {
		col, t := &b.cols[i], s.Col(i).Type
		n, ok := 0, false
		switch v := c.(type) {
		case []int64:
			col.ints, n, ok = v, len(v), t == Int64 || t == Timestamp
		case []float64:
			col.flts, n, ok = v, len(v), t == Float64
		case []string:
			col.strs, n, ok = v, len(v), t == String
		case []bool:
			col.bools, n, ok = v, len(v), t == Bool
		}
		if !ok {
			return nil, fmt.Errorf("%w: column %q wants %s, got %T", ErrBadValue, s.Col(i).Name, t, c)
		}
		if i > 0 && n != b.rows {
			return nil, fmt.Errorf("%w: column %q has %d rows, want %d", ErrSchemaMismatch, s.Col(i).Name, n, b.rows)
		}
		b.rows = n
	}
	return b, nil
}

// HConcat zips two equal-length batches column-wise under the combined
// schema s (the columns of l followed by the columns of r). The result shares
// the inputs' column storage — nothing is copied — which the immutability of
// handed-on batches makes safe; joins zip their two gathered sides with it.
func HConcat(s Schema, l, r *Batch) (*Batch, error) {
	if l.rows != r.rows {
		return nil, fmt.Errorf("%w: HConcat of %d vs %d rows", ErrSchemaMismatch, l.rows, r.rows)
	}
	nl := l.schema.Len()
	if s.Len() != nl+r.schema.Len() {
		return nil, fmt.Errorf("%w: HConcat schema has %d columns for %d+%d inputs",
			ErrSchemaMismatch, s.Len(), nl, r.schema.Len())
	}
	out := &Batch{schema: s, cols: make([]column, 0, s.Len()), rows: l.rows}
	out.cols = append(append(out.cols, l.cols...), r.cols...)
	for i := range out.cols {
		src, sc := l, i
		if i >= nl {
			src, sc = r, i-nl
		}
		if got, want := src.schema.Col(sc).Type, s.Col(i).Type; got != want {
			return nil, fmt.Errorf("%w: HConcat column %q is %s, schema wants %s",
				ErrSchemaMismatch, s.Col(i).Name, got, want)
		}
	}
	return out, nil
}

// Clone returns a deep copy of the batch.
func (b *Batch) Clone() *Batch {
	out, err := b.Slice(0, b.rows)
	if err != nil {
		// Slice(0, rows) cannot fail on a consistent batch.
		panic(err)
	}
	return out
}

// ByteSize returns the approximate in-memory payload size of the batch in
// bytes, used by cost models and migration accounting.
//
// It is the logical size whether or not the columns have been gathered, and
// computing it gathers nothing.
func (b *Batch) ByteSize() int64 {
	var total int64
	for i := range b.cols {
		switch b.schema.Col(i).Type {
		case Int64, Timestamp, Float64:
			total += int64(b.rows) * 8
		case Bool:
			total += int64(b.rows)
		case String:
			total += int64(b.rows) * 8
			c, rows := b.cols[i].read()
			for _, r := range rows {
				total += int64(len(c.strs[r]))
			}
			if rows == nil {
				for _, s := range c.strs {
					total += int64(len(s))
				}
			}
		}
	}
	return total
}

// Equal reports whether two batches hold identical schemas and data.
func (b *Batch) Equal(o *Batch) bool {
	if b.rows != o.rows || !b.schema.Equal(o.schema) {
		return false
	}
	for i := range b.cols {
		c, oc := b.col(i), o.col(i)
		if !slices.Equal(c.ints, oc.ints) || !slices.Equal(c.flts, oc.flts) ||
			!slices.Equal(c.strs, oc.strs) || !slices.Equal(c.bools, oc.bools) {
			return false
		}
	}
	return true
}
