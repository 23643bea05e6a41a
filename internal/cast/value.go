package cast

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// AppendKey appends to dst the key columns of row r rendered as a canonical
// string usable as a map key (exact, unlike a hash); strings are quoted so
// that adjacent values cannot alias. It reads the typed columns directly:
// per-row callers reuse one buffer and allocate nothing. r must be in range.
func (b *Batch) AppendKey(dst []byte, r int, cols []int) []byte {
	for _, c := range cols {
		col := b.col(c)
		switch b.schema.Col(c).Type {
		case Int64, Timestamp:
			dst = strconv.AppendInt(dst, col.ints[r], 10)
		case Float64:
			dst = strconv.AppendFloat(dst, col.flts[r], 'g', -1, 64)
		case String:
			dst = strconv.AppendQuote(dst, col.strs[r])
		case Bool:
			dst = strconv.AppendBool(dst, col.bools[r])
		}
		dst = append(dst, '|')
	}
	return dst
}

// SortKey describes one ordering column for SortBy.
type SortKey struct {
	Col  string
	Desc bool
}

// SortBy returns the rows ordered by the given keys (lexicographically across
// keys), ties kept in row order. Each key column is resolved to a comparator
// over its typed slice once and row numbers are ordered with no boxing; the
// result is Take of them, so only the key columns are read.
//
// A limit in [0, rows) keeps only the first limit rows of that order: one
// pass holds the limit best row numbers in a heap, and no permutation of the
// input is built. A negative limit, or one of at least rows, sorts all rows.
func (b *Batch) SortBy(limit int, keys ...SortKey) (*Batch, error) {
	cmps := make([]func(x, y int32) int, len(keys))
	for i, k := range keys {
		ci, err := b.schema.Index(k.Col)
		if err != nil {
			return nil, err
		}
		cmps[i] = b.keyComparator(ci)
	}
	// The row number breaks the last tie: the order is total, so any sort by
	// it is the stable sort, and a heap by it keeps the stable sort's prefix.
	rowCmp := func(x, y int32) int {
		for i, cmp := range cmps {
			if c := cmp(x, y); c != 0 {
				if keys[i].Desc {
					return -c
				}
				return c
			}
		}
		return int(x) - int(y)
	}
	n := b.rows
	if limit >= 0 && limit < n {
		n = limit
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if 0 < n && n < b.rows {
		// A max-heap of the best n rows so far; a later row displaces its
		// root only when it sorts before it.
		for i := n/2 - 1; i >= 0; i-- {
			siftDown(order, i, rowCmp)
		}
		for r := int32(n); int(r) < b.rows; r++ {
			if rowCmp(r, order[0]) < 0 {
				order[0] = r
				siftDown(order, 0, rowCmp)
			}
		}
	}
	slices.SortStableFunc(order, rowCmp)
	return b.Take(order), nil
}

// siftDown restores the max-heap property of h below i.
func siftDown(h []int32, i int, cmp func(x, y int32) int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && cmp(h[c], h[c+1]) < 0 {
			c++
		}
		if cmp(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// Comparator returns the three-way ordering of rows x and y on column col,
// read from the typed slice with no boxing: false before true, and a float
// NaN neither below nor above anything.
func (b *Batch) Comparator(col int) func(x, y int32) int {
	c := b.col(col)
	switch b.schema.Col(col).Type {
	case Int64, Timestamp:
		v := c.ints
		return func(x, y int32) int { return cmpOrdered(v[x], v[y]) }
	case Float64:
		v := c.flts
		return func(x, y int32) int { return cmpOrdered(v[x], v[y]) }
	case String:
		v := c.strs
		return func(x, y int32) int { return cmpOrdered(v[x], v[y]) }
	default:
		v := c.bools
		return func(x, y int32) int { return cmpBool(v[x], v[y]) }
	}
}

// keyComparator is Comparator for a sort key, which needs a total order:
// a float NaN, level with everything under Comparator, sorts after every number
// (so first descending, PostgreSQL's rule) and level with another NaN.
// -0 and +0 stay equal.
func (b *Batch) keyComparator(col int) func(x, y int32) int {
	if b.schema.Col(col).Type != Float64 {
		return b.Comparator(col)
	}
	v := b.col(col).flts
	return func(x, y int32) int {
		switch a, b := v[x], v[y]; {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b:
			return 0
		default: // a NaN on at least one side
			return cmpBool(math.IsNaN(a), math.IsNaN(b))
		}
	}
}

// FormatValue renders a boxed value for CSV output and debugging.
func FormatValue(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// ParseValue parses the textual form of a value for the given column type,
// the inverse of FormatValue.
func ParseValue(t Type, s string) (any, error) {
	switch t {
	case Int64, Timestamp:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %q as %s: %v", ErrBadValue, s, t, err)
		}
		return v, nil
	case Float64:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %q as %s: %v", ErrBadValue, s, t, err)
		}
		return v, nil
	case String:
		return s, nil
	case Bool:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %q as %s: %v", ErrBadValue, s, t, err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadValue, int(t))
	}
}
