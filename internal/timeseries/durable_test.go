package timeseries

import (
	"bytes"
	"errors"
	"testing"

	"polystorepp/internal/cast"
)

// TestRestoreRejectsPartialPoint: a chunk blob is whole 16-byte points. A
// 17-byte blob holds one point and one stray byte; Restore fails it with
// cast.ErrCodec instead of restoring the point and dropping the byte.
func TestRestoreRejectsPartialPoint(t *testing.T) {
	var enc cast.Encoder
	enc.U64(1) // version
	enc.U32(1) // series
	enc.Str("cpu")
	enc.U32(1) // chunks
	var pt cast.Encoder
	pt.I64(1000)
	pt.F64(0.5)
	enc.Blob(append(pt.Bytes(), 0))
	err := New("ts").Restore(bytes.NewReader(enc.Bytes()))
	if !errors.Is(err, cast.ErrCodec) {
		t.Fatalf("Restore of a 17-byte blob = %v, want a cast.ErrCodec error", err)
	}
}
