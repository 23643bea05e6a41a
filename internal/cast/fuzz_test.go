package cast

import (
	"bytes"
	"errors"
	"io"
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
