package cast

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The wire formats in this file are what the data migrator moves between
// engines. Two formats exist deliberately (§III-A3 of the paper):
//
//   - CSV: the naive portable path every engine supports. Expensive because
//     every value round-trips through text.
//   - Binary columnar ("pipe format"): the PipeGen-style optimized binary
//     layout streamed over network pipes.

// Binary format constants.
const (
	binaryMagic   = uint32(0x504c5342) // "PLSB"
	binaryVersion = uint16(1)
)

// ErrCodec wraps malformed-input failures from the decoders.
var ErrCodec = errors.New("cast: codec")

// WriteCSV writes the batch in CSV form with a header row of column names.
func WriteCSV(w io.Writer, b *Batch) error {
	cw := csv.NewWriter(w)
	s := b.Schema()
	head := make([]string, s.Len())
	for i := range head {
		head[i] = s.Col(i).Name
	}
	if err := cw.Write(head); err != nil {
		return fmt.Errorf("csv header: %w", err)
	}
	rec := make([]string, s.Len())
	for r := 0; r < b.Rows(); r++ {
		for c := 0; c < s.Len(); c++ {
			v, err := b.Value(r, c)
			if err != nil {
				return err
			}
			rec[c] = FormatValue(v)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses CSV (with a header row) into a batch with the given schema.
// The header must match the schema's column names in order.
func ReadCSV(r io.Reader, s Schema) (*Batch, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = s.Len()
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: reading csv header: %v", ErrCodec, err)
	}
	for i, name := range head {
		if name != s.Col(i).Name {
			return nil, fmt.Errorf("%w: csv header %q != schema column %q", ErrCodec, name, s.Col(i).Name)
		}
	}
	b := NewBatch(s, 0)
	vals := make([]any, s.Len())
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reading csv: %v", ErrCodec, err)
		}
		for i, f := range rec {
			v, err := ParseValue(s.Col(i).Type, f)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := b.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
}

// maxStep bounds how much memory a decoder commits ahead of the bytes it has
// actually read. Every length in the formats below comes from the stream
// itself, so a damaged header must cost an error, not an allocation.
const maxStep = 1 << 16

// Encoder appends little-endian fields to a byte slice — the write half of
// the byte cursor shared by the pipe format, the stores' WAL records and
// their snapshot sections. It is an io.Writer, so WriteBinary can append a
// batch behind hand-written fields.
type Encoder struct{ buf []byte }

func (e *Encoder) U8(v byte)     { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str and Blob append a u32 length and the bytes.
func (e *Encoder) Str(s string)  { e.U32(uint32(len(s))); e.buf = append(e.buf, s...) }
func (e *Encoder) Blob(b []byte) { e.U32(uint32(len(b))); e.buf = append(e.buf, b...) }

// Write implements io.Writer by appending p verbatim.
func (e *Encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// Bytes returns what has been encoded since the last Reset. The slice
// aliases the encoder until then.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its storage.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes, so a record whose size is known up
// front is built in one allocation.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Decoder is the read half of the cursor. The first failure sticks: every
// later read returns zero values, and Err or Finish reports it wrapped in
// ErrCodec — callers decode a whole record and check once.
type Decoder struct {
	buf     []byte        // what is left of an in-memory input (DecodeBytes)
	r       *bufio.Reader // a streamed input (NewDecoder); nil when decoding buf
	err     error
	scratch []byte // only for a caller's bufio.Reader smaller than a field
}

// NewDecoder reads fields from the stream r. An existing bufio.Reader is
// used as is: wrapping it again would read ahead and strand bytes, which
// corrupts multi-batch streams.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, maxStep)
	}
	return &Decoder{r: br}
}

// DecodeBytes reads fields straight out of b — a WAL record — without
// copying; b must not change while the decoder is in use.
func DecodeBytes(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the sticky error, or an error when input remains: a record
// or section must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && d.r == nil {
		if len(d.buf) > 0 {
			d.fail("%d trailing bytes", len(d.buf))
		}
	} else if d.err == nil {
		if _, err := d.r.ReadByte(); err == nil {
			d.fail("trailing bytes")
		} else if err != io.EOF {
			d.fail("%v", err)
		}
	}
	return d.err
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
	}
}

// zeros is what every read yields after a failure.
var zeros [maxStep]byte

// fill returns the next n <= maxStep bytes without copying them: a slice of
// the in-memory input or of the stream's buffer, read-only and valid until
// the next read. An in-memory input knows what is left, so a length past it
// fails before anything is allocated for it.
func (d *Decoder) fill(n int) []byte {
	if d.r == nil && n > len(d.buf) {
		d.fail("%d bytes wanted, %d left", n, len(d.buf))
	}
	if d.err != nil {
		return zeros[:n]
	}
	if d.r == nil {
		p := d.buf[:n]
		d.buf = d.buf[n:]
		return p
	}
	p, err := d.r.Peek(n)
	if err == bufio.ErrBufferFull { // the caller's reader buffers less than n
		if cap(d.scratch) < n {
			d.scratch = make([]byte, n)
		}
		p = d.scratch[:n]
		_, err = io.ReadFull(d.r, p)
	} else if err == nil {
		_, err = d.r.Discard(n)
	}
	if err != nil {
		d.fail("%v", err)
		return zeros[:n]
	}
	return p
}

// take reads the next n bytes, growing its result only as bytes arrive; nil
// after a failure.
func (d *Decoder) take(n int) []byte {
	if n <= maxStep {
		if p := d.fill(n); d.err == nil {
			return p
		}
		return nil
	}
	var out []byte
	for len(out) < n {
		p := d.fill(min(n-len(out), maxStep))
		if d.err != nil {
			return nil
		}
		out = append(out, p...)
	}
	return out
}

func (d *Decoder) U8() byte     { return d.fill(1)[0] }
func (d *Decoder) U16() uint16  { return binary.LittleEndian.Uint16(d.fill(2)) }
func (d *Decoder) U32() uint32  { return binary.LittleEndian.Uint32(d.fill(4)) }
func (d *Decoder) U64() uint64  { return binary.LittleEndian.Uint64(d.fill(8)) }
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str and Blob read a u32 length and that many bytes.
func (d *Decoder) Str() string  { return string(d.take(int(d.U32()))) }
func (d *Decoder) Blob() []byte { return append([]byte(nil), d.take(int(d.U32()))...) }

// WriteBinary writes the batch in the columnar binary pipe format:
//
//	magic u32 | version u16 | ncols u16 | nrows u64
//	per column: nameLen u16 | name | type u8
//	per column: payload (fixed-width values back to back; strings as
//	            len u32 + bytes)
func WriteBinary(w io.Writer, b *Batch) error {
	// One buffer, sized to the batch (a one-row WAL record must not pay for
	// a pipe-sized one) and written out whenever it passes maxStep.
	e := Encoder{buf: make([]byte, 0, min(maxStep+8, 16+(32+9*b.Rows())*b.Schema().Len()))}
	return e.writeBatch(w, b)
}

// spill writes the buffer out to w once it has reached maxStep.
func (e *Encoder) spill(w io.Writer) (err error) {
	if len(e.buf) >= maxStep {
		_, err = w.Write(e.buf)
		e.buf = e.buf[:0]
	}
	return err
}

// block extends the buffer by the next run of width-byte values of a column
// with left of them to go — as many as bring it to a spill — and returns how
// many and where they go: fixed-width columns are encoded a block at a time,
// one spill test per block instead of per value.
func (e *Encoder) block(left, width int) (n int, dst []byte) {
	n = min(left, (maxStep-len(e.buf)+width-1)/width)
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n*width)[:at+n*width]
	return n, e.buf[at:]
}

// writeBatch encodes b through the encoder's buffer (see WriteBinary for the
// format), spilling to w as it fills and flushing what is left.
func (e *Encoder) writeBatch(w io.Writer, b *Batch) error {
	s := b.Schema()
	e.U32(binaryMagic)
	e.U16(binaryVersion)
	e.U16(uint16(s.Len()))
	e.U64(uint64(b.Rows()))
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i) // NewSchema bounds the count and the name to a u16
		e.U16(uint16(len(c.Name)))
		e.buf = append(e.buf, c.Name...)
		e.U8(byte(c.Type))
	}
	err := e.spill(w)
	for i := 0; i < s.Len(); i++ {
		c := b.col(i)
		switch s.Col(i).Type {
		case Int64, Timestamp:
			for vals := c.ints; len(vals) > 0 && err == nil; err = e.spill(w) {
				n, dst := e.block(len(vals), 8)
				for j, v := range vals[:n] {
					binary.LittleEndian.PutUint64(dst[8*j:], uint64(v))
				}
				vals = vals[n:]
			}
		case Float64:
			for vals := c.flts; len(vals) > 0 && err == nil; err = e.spill(w) {
				n, dst := e.block(len(vals), 8)
				for j, v := range vals[:n] {
					binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(v))
				}
				vals = vals[n:]
			}
		case Bool:
			for vals := c.bools; len(vals) > 0 && err == nil; err = e.spill(w) {
				n, dst := e.block(len(vals), 1)
				for j, v := range vals[:n] {
					dst[j] = 0
					if v {
						dst[j] = 1
					}
				}
				vals = vals[n:]
			}
		case String:
			for j := 0; j < len(c.strs) && err == nil; j++ {
				e.Str(c.strs[j])
				err = e.spill(w)
			}
		}
	}
	if err == nil {
		_, err = w.Write(e.buf)
	}
	return err
}

// Batch decodes one pipe-format batch (see WriteBinary), nil on failure.
func (d *Decoder) Batch() *Batch {
	cols, n := d.header(nil)
	if d.err != nil {
		return nil
	}
	s, err := NewSchema(cols...)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	b := NewBatch(s, 0)
	if d.columns(b, n); d.err != nil {
		return nil
	}
	return b
}

// AppendTo decodes one pipe-format batch whose schema must equal dst's and
// appends its rows to dst; a failure leaves dst as it was. Replay uses it to
// decode an insert straight into the table heap, against the table's schema,
// instead of building a schema and a batch per record.
func (d *Decoder) AppendTo(dst *Batch) {
	_, n := d.header(&dst.schema)
	d.columns(dst, n)
}

// header reads a batch header: the columns and the row count. With want
// set, the columns must be want's and none are returned.
func (d *Decoder) header(want *Schema) (cols []Column, nrows int) {
	if m := d.U32(); d.err == nil && m != binaryMagic {
		d.fail("bad magic %#x", m)
	}
	if v := d.U16(); d.err == nil && v != binaryVersion {
		d.fail("unsupported version %d", v)
	}
	ncols, n := int(d.U16()), d.U64()
	if n > math.MaxInt32 || (ncols == 0 && n > 0) {
		d.fail("implausible shape: %d rows of %d columns", n, ncols)
	}
	if want != nil && d.err == nil && ncols != want.Len() {
		d.fail("%d columns, schema has %d", ncols, want.Len())
	}
	for i := 0; i < ncols && d.err == nil; i++ {
		name := d.take(int(d.U16()))
		if want != nil {
			if c := want.Col(i); d.err == nil && (string(name) != c.Name || Type(d.U8()) != c.Type) {
				d.fail("column %d is not %s %s", i, c.Name, c.Type)
			}
			continue
		}
		c := Column{Name: string(name)} // copied out before the next read reuses the buffer
		c.Type = Type(d.U8())
		if d.err == nil && !c.Type.Valid() {
			d.fail("invalid column type %d", c.Type)
		}
		cols = append(cols, c)
	}
	return cols, int(n)
}

// columns appends n rows of column payload to b, or nothing on failure. The
// row count came from the header and is not trusted: an empty b is sized up
// front for no more of it than the input can hold (or one step of a stream),
// and columns grow as their values arrive.
func (d *Decoder) columns(b *Batch, n int) {
	for i := range b.cols {
		c, t, end := &b.cols[i], b.schema.Col(i).Type, b.rows+n
		if b.rows == 0 {
			hint := maxStep / 16 // a stream: one step's worth of the widest element
			if d.r == nil {
				hint = len(d.buf) // in memory: an element takes at least a byte
			}
			c.grow(t, min(n, hint))
		}
		switch t {
		case Int64, Timestamp:
			for len(c.ints) < end && d.err == nil {
				for p := d.fill(8 * min(end-len(c.ints), maxStep/8)); len(p) > 0 && d.err == nil; p = p[8:] {
					c.ints = append(c.ints, int64(binary.LittleEndian.Uint64(p)))
				}
			}
		case Float64:
			for len(c.flts) < end && d.err == nil {
				for p := d.fill(8 * min(end-len(c.flts), maxStep/8)); len(p) > 0 && d.err == nil; p = p[8:] {
					c.flts = append(c.flts, math.Float64frombits(binary.LittleEndian.Uint64(p)))
				}
			}
		case Bool:
			for len(c.bools) < end && d.err == nil {
				for p := d.fill(min(end-len(c.bools), maxStep)); len(p) > 0 && d.err == nil; p = p[1:] {
					c.bools = append(c.bools, p[0] != 0)
				}
			}
		case String:
			for len(c.strs) < end && d.err == nil {
				if v := d.Str(); d.err == nil {
					c.strs = append(c.strs, v)
				}
			}
		}
	}
	if d.err != nil {
		b.Truncate(b.rows)
		return
	}
	b.rows += n
}

// StreamWriter writes a sequence of batches (chunks) over one connection,
// each length-delimited, so a receiver can process chunks as they arrive —
// the "network pipe" of PipeGen. Chunks are encoded through one buffer the
// writer keeps, across Reset too, so a pooled writer allocates nothing.
type StreamWriter struct {
	w io.Writer
	e Encoder
}

// NewStreamWriter returns a StreamWriter over w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Reset points the writer at a new stream.
func (sw *StreamWriter) Reset(w io.Writer) { sw.w = w }

// WriteChunk writes one batch as a chunk. A zero-row batch is legal.
func (sw *StreamWriter) WriteChunk(b *Batch) error {
	sw.e.Reset()
	return sw.e.writeBatch(sw.w, b)
}

// Close writes the end-of-stream marker (a frame with zero magic).
func (sw *StreamWriter) Close() error {
	var end [4]byte // 4 zero bytes cannot begin a valid frame (magic mismatch)
	_, err := sw.w.Write(end[:])
	return err
}

// StreamReader reads the chunk sequence produced by StreamWriter.
type StreamReader struct {
	br *bufio.Reader
	d  *Decoder // over br; kept across chunks so its scratch buffer is too
}

// NewStreamReader returns a StreamReader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	br := bufio.NewReaderSize(r, maxStep)
	return &StreamReader{br: br, d: NewDecoder(br)}
}

// Reset points the reader at a new stream, keeping its buffers.
func (sr *StreamReader) Reset(r io.Reader) {
	sr.br.Reset(r)
	sr.d.err = nil
}

// AppendChunk decodes the next chunk, whose schema must equal dst's, straight
// onto the end of dst (see Decoder.AppendTo), or consumes the end-of-stream
// marker and returns io.EOF. A receiver that knows the final size decodes
// every chunk into one presized batch.
func (sr *StreamReader) AppendChunk(dst *Batch) error {
	peek, err := sr.br.Peek(4)
	if err != nil {
		return fmt.Errorf("%w: peeking frame: %v", ErrCodec, err)
	}
	if binary.LittleEndian.Uint32(peek) != binaryMagic {
		if _, err := sr.br.Discard(4); err != nil {
			return fmt.Errorf("%w: consuming eos: %v", ErrCodec, err)
		}
		return io.EOF
	}
	sr.d.AppendTo(dst)
	return sr.d.Err()
}
