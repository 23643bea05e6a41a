package cast

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCSVRoundTrip(t *testing.T) {
	b := testBatch(t, 25)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, b.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.Equal(b) {
		t.Fatal("CSV round trip changed data")
	}
}

func TestCSVHeaderMismatch(t *testing.T) {
	b := testBatch(t, 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	wrong := MustSchema(
		Column{Name: "nope", Type: Int64},
		Column{Name: "score", Type: Float64},
		Column{Name: "name", Type: String},
		Column{Name: "active", Type: Bool},
		Column{Name: "ts", Type: Timestamp},
	)
	if _, err := ReadCSV(&buf, wrong); !errors.Is(err, ErrCodec) {
		t.Fatalf("want ErrCodec, got %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	b := testBatch(t, 100)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !got.Equal(b) {
		t.Fatal("binary round trip changed data")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a batch at all")); !errors.Is(err, ErrCodec) {
		t.Fatalf("want ErrCodec, got %v", err)
	}
	if _, err := ReadBinary(strings.NewReader("")); !errors.Is(err, ErrCodec) {
		t.Fatalf("empty input: want ErrCodec, got %v", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	b := testBatch(t, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) / 2, len(raw) - 1, 17} {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated at %d bytes should fail", cut)
		}
	}
}

func TestStreamChunks(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	chunks := []*Batch{testBatch(t, 5), testBatch(t, 0), testBatch(t, 17)}
	for _, c := range chunks {
		if err := sw.WriteChunk(c); err != nil {
			t.Fatalf("WriteChunk: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sr := NewStreamReader(&buf)
	for i, want := range chunks {
		got := NewBatch(want.Schema(), 0)
		if err := sr.AppendChunk(got); err != nil {
			t.Fatalf("AppendChunk %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("chunk %d differs", i)
		}
	}
	if err := sr.AppendChunk(NewBatch(chunks[0].Schema(), 0)); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF after stream end, got %v", err)
	}
}

// randomBatch builds a pseudo-random batch for property tests.
func randomBatch(rng *rand.Rand, rows int) *Batch {
	s := MustSchema(
		Column{Name: "i", Type: Int64},
		Column{Name: "f", Type: Float64},
		Column{Name: "s", Type: String},
		Column{Name: "b", Type: Bool},
	)
	b := NewBatch(s, rows)
	for r := 0; r < rows; r++ {
		var sb strings.Builder
		for l := rng.Intn(12); l > 0; l-- {
			sb.WriteByte(byte(' ' + rng.Intn(95)))
		}
		// Avoid NaN: Equal uses == which would make round-trip comparison fail
		// for reasons unrelated to the codec.
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) {
			f = 0
		}
		if err := b.AppendRow(rng.Int63()-rng.Int63(), f, sb.String(), rng.Intn(2) == 0); err != nil {
			panic(err)
		}
	}
	return b
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, int(n)%64)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, b); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSVRoundTripFixedCols(t *testing.T) {
	// CSV cannot faithfully round-trip every float bit pattern via %g plus
	// arbitrary control characters in strings, so the property is restricted
	// to the value domain engines actually emit: finite floats and printable
	// strings — exactly what randomBatch generates.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, int(n)%48)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, b); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, b.Schema())
		if err != nil {
			return false
		}
		return got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySortIsPermutationAndOrdered(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, int(n)%100+1)
		sorted, err := b.SortBy(-1, SortKey{Col: "i"})
		if err != nil {
			return false
		}
		if sorted.Rows() != b.Rows() {
			return false
		}
		ints, _ := sorted.Ints(0)
		for j := 1; j < len(ints); j++ {
			if ints[j-1] > ints[j] {
				return false
			}
		}
		// Permutation check via multiset sum/xor fingerprints.
		var sumA, sumB, xorA, xorB int64
		orig, _ := b.Ints(0)
		for _, v := range orig {
			sumA += v
			xorA ^= v
		}
		for _, v := range ints {
			sumB += v
			xorB ^= v
		}
		return sumA == sumB && xorA == xorB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGatherSliceAgree(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n)%50 + 2
		b := randomBatch(rng, rows)
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo)
		sl, err := b.Slice(lo, hi)
		if err != nil {
			return false
		}
		sel := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
		return sl.Equal(b.Take(sel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	batch := benchBatch(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSVEncode(b *testing.B) {
	batch := benchBatch(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatch(n int) *Batch {
	s := MustSchema(
		Column{Name: "a", Type: Int64},
		Column{Name: "b", Type: Int64},
		Column{Name: "c", Type: Float64},
		Column{Name: "d", Type: Float64},
	)
	b := NewBatch(s, n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), int64(i*7), float64(i)*1.5, float64(i)*2.5); err != nil {
			panic(err)
		}
	}
	return b
}

// BenchmarkEncodeRows10k encodes 10k rows of the bench/ events schema
// (id, kind, value) as a /query/stream response carries them: 1024-row
// chunks appended into one reused buffer.
func BenchmarkEncodeRows10k(b *testing.B) {
	const rows = 10_000
	rng := rand.New(rand.NewSource(1))
	batch := NewBatch(MustSchema(Column{Name: "id", Type: Int64}, Column{Name: "kind", Type: Int64},
		Column{Name: "value", Type: Float64}), rows)
	for i := 0; i < rows; i++ {
		if err := batch.AppendRow(int64(40_000+i), int64(i%16), float64(rng.Intn(8_000_000))/8); err != nil {
			b.Fatal(err)
		}
	}
	buf, err := batch.AppendJSONRows(nil, 0, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < rows; lo += 1024 {
			if buf, err = batch.AppendJSONRows(buf[:0], lo, min(lo+1024, rows)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
