//go:build !race

package server

import (
	"net/http"
	"testing"
	"time"

	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
)

// discardResponse is a ResponseWriter that keeps nothing, so what the test
// counts is the stream's own allocation. (The race runtime allocates on its
// own account, hence the build tag.)
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Flush()                      {}

// TestEmitBatchAllocBudget: one 1024-row chunk leaves as one pooled buffer,
// one Write and one Flush — nothing per row, nothing per cell.
func TestEmitBatchAllocBudget(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	b := cast.NewBatch(cast.MustSchema(cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "value", Type: cast.Float64}, cast.Column{Name: "tag", Type: cast.String}), 1024)
	for i := 0; i < 1024; i++ {
		if err := b.AppendRow(int64(i), float64(i)/8, "t"); err != nil {
			t.Fatal(err)
		}
	}
	st := newNDJSONStream(s, discardResponse{h: http.Header{}}, nil, 1<<30, time.Now(), time.Minute)
	if err := st.StartStream(0, b.Schema()); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := st.EmitBatch(0, b); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("EmitBatch of 1024 rows: %.0f allocations, budget 4", allocs)
	}
	if got := s.st.streamRows.Value(); got < 1024 {
		t.Fatalf("stream_rows = %d", got)
	}
}
