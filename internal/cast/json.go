package cast

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONRows appends rows [lo, hi) to dst as a JSON array of row arrays,
// [[..],[..]], reading the typed column slices directly — no cell is boxed
// and, given capacity in dst, nothing is allocated. The bytes are exactly
// what encoding/json produces for the same rows boxed by Batch.Row:
// timestamps are integers, floats take the shortest representation that
// round-trips, strings are HTML-escaped. JSON has no NaN or ±Inf: a
// non-finite float returns an error and dst at its original length, so a
// half-encoded row never reaches a caller's wire. A selection-backed column
// is read through its selection, for the emitted rows only.
func (b *Batch) AppendJSONRows(dst []byte, lo, hi int) ([]byte, error) {
	if lo < 0 || hi > b.rows || lo > hi {
		return dst, fmt.Errorf("%w: [%d,%d) of %d", ErrRowOutOfRange, lo, hi, b.rows)
	}
	type reader struct {
		col  *column
		rows []int32
	}
	var stack [16]reader // wider batches allocate the list
	reads := stack[:0]
	for c := range b.cols {
		col, rows := b.cols[c].read()
		reads = append(reads, reader{col, rows})
	}
	start := len(dst)
	dst = append(dst, '[')
	for at := lo; at < hi; at++ {
		if at > lo {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c, rd := range reads {
			if c > 0 {
				dst = append(dst, ',')
			}
			col, r := rd.col, at
			if rd.rows != nil {
				r = int(rd.rows[at])
			}
			switch b.schema.cols[c].Type {
			case Int64, Timestamp:
				dst = strconv.AppendInt(dst, col.ints[r], 10)
			case Float64:
				f := col.flts[r]
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return dst[:start], fmt.Errorf("cast: row %d column %q is %v, which JSON cannot carry",
						at, b.schema.cols[c].Name, f)
				}
				dst = appendJSONFloat(dst, f)
			case String:
				dst = appendJSONString(dst, col.strs[r])
			case Bool:
				dst = strconv.AppendBool(dst, col.bools[r])
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// appendJSONFloat renders a finite f as encoding/json does (the ES6 number
// format): plain digits, or exponent form below 1e-6 and from 1e21, with a
// one-digit negative exponent unpadded (e-07 is written e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// two-character escapes for the quote, the backslash and \b \f \n \r \t,
// \u00XX for the other control bytes and for < > &, \u2028 and \u2029 for
// the two separators JavaScript rejects, and \ufffd for each byte of
// invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
