package cast

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// allocated runs fn and returns the heap bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadBinary feeds arbitrary bytes to the pipe-format decoder. It must
// never panic; a failure is ErrCodec; memory stays proportional to the
// input whatever row count or string length a damaged header claims — decoded
// in place, where what is left is known, and from a stream, where it is not;
// and whatever decodes re-encodes to bytes that decode to the same.
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{0, 1, 17} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomBatch(rng, rows)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A valid 16-byte header claiming MaxInt32 rows of one string column,
	// whose first string claims 4 GiB.
	var e Encoder
	e.U32(binaryMagic)
	e.U16(binaryVersion)
	e.U16(1)
	e.U64(1<<31 - 1)
	e.U16(1)
	e.U8('s')
	e.U8(byte(String))
	e.U32(1<<32 - 1)
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var b *Batch
		var err error
		budget := uint64(64<<10 + 64*len(data))
		if got := allocated(func() {
			d := DecodeBytes(data)
			b, err = d.Batch(), d.Err()
		}); got > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		// The same bytes as a stream, which cannot say how much is left: a
		// step of column, a step of scratch and the bufio buffer are the
		// only memory committed ahead of the bytes.
		var sb *Batch
		var serr error
		stream := struct{ io.Reader }{bytes.NewReader(data)}
		if got := allocated(func() { sb, serr = ReadBinary(stream) }); got > budget+4*maxStep {
			t.Fatalf("stream-decoding %d bytes allocated %d", len(data), got)
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("in-memory decode: %v, stream decode: %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrCodec) || b != nil {
				t.Fatalf("failure must be ErrCodec with no batch: %v, %v", err, b)
			}
			return
		}
		var first, second bytes.Buffer
		if err := WriteBinary(&first, b); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBinary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if err := WriteBinary(&second, again); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(io.Discard, sb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}

// FuzzAppendJSONRows holds the typed row encoder to encoding/json: over all
// five column types and any row sub-range, AppendJSONRows produces the bytes
// json.Marshal produces for the same rows boxed by Batch.Row, and where
// json.Marshal refuses (NaN, ±Inf) it refuses too and hands dst back
// untouched. Rows after the first are the fuzzed row negated, shifted and
// rotated, so byte rotations of a valid string supply broken UTF-8.
func FuzzAppendJSONRows(f *testing.F) {
	f.Add(int64(0), 0.0, "", false, int64(0), uint8(0), uint8(0), uint8(0)) // empty batch
	f.Add(int64(math.MaxInt64), math.Copysign(0, -1), `<a href="x">&amp;</a>`, true, int64(math.MinInt64), uint8(4), uint8(0), uint8(4))
	f.Add(int64(-1), 5e-324, "caf\xc3\xa9 \xff\xfe \xe2\x80\xa8|\xe2\x80\xa9 \xf0\x9f\x98\x80", false, int64(1), uint8(4), uint8(0), uint8(4))
	f.Add(int64(7), 1e-7, "\x00\x1f\b\f\n\r\t\\\"\x7f/", true, int64(2), uint8(3), uint8(1), uint8(3)) // a sub-range
	f.Add(int64(7), 1e21, "plain", true, int64(3), uint8(3), uint8(2), uint8(2))                       // lo == hi
	f.Add(int64(7), 999999999999999868928.0, "", false, int64(4), uint8(1), uint8(0), uint8(1))        // largest below 1e21
	f.Add(int64(7), 1e-6, "", false, int64(5), uint8(2), uint8(0), uint8(2))
	f.Add(int64(7), 2.2250738585072014e-308, "", false, int64(6), uint8(2), uint8(0), uint8(2))
	f.Add(int64(7), 123456789.123456789e-15, "", false, int64(6), uint8(2), uint8(0), uint8(2))
	f.Add(int64(7), math.NaN(), "x", false, int64(7), uint8(2), uint8(0), uint8(2))
	f.Add(int64(7), math.Inf(-1), "x", false, int64(8), uint8(2), uint8(1), uint8(2))
	f.Add(int64(7), math.MaxFloat64, "x", false, int64(9), uint8(4), uint8(0), uint8(4))

	schema := MustSchema(Column{Name: "i", Type: Int64}, Column{Name: "f", Type: Float64},
		Column{Name: "s", Type: String}, Column{Name: "b", Type: Bool}, Column{Name: "ts", Type: Timestamp})
	f.Fuzz(func(t *testing.T, i int64, x float64, s string, flag bool, ts int64, n, lo, hi uint8) {
		b := NewBatch(schema, 0)
		for k := 0; k < int(n%5); k++ {
			rot := s
			if len(s) > 0 {
				rot = s[k%len(s):] + s[:k%len(s)]
			}
			fl := []float64{x, -x, x / 3, float64(float32(x))}[k]
			if err := b.AppendRow(i^int64(k)<<40, fl, rot, flag != (k%2 == 1), ts-int64(k)); err != nil {
				t.Fatal(err)
			}
		}
		from := int(lo) % (b.Rows() + 1)
		to := from + int(hi)%(b.Rows()-from+1)
		rows := make([][]any, 0, to-from)
		for r := from; r < to; r++ {
			row, err := b.Row(r)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		want, wantErr := json.Marshal(rows)
		got, err := b.AppendJSONRows([]byte("dst"), from, to)
		if wantErr != nil {
			if err == nil || string(got) != "dst" {
				t.Fatalf("json.Marshal fails (%v); AppendJSONRows returned %q, %v", wantErr, got, err)
			}
			return
		}
		if err != nil || string(got) != "dst"+string(want) {
			t.Fatalf("rows [%d,%d):\n got %s (err %v)\nwant dst%s", from, to, got, err, want)
		}
	})
}
