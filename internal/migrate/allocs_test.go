//go:build !race

package migrate

import (
	"context"
	"testing"

	"polystorepp/internal/hw"
)

// A pipe migration allocates the batch it returns and little else: sender
// and receiver (both goroutines count here) run out of pooled buffers. The
// parent allocated 4.2 bytes per byte moved.
func TestPipeAllocatesOnePayload(t *testing.T) {
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	in := numeric2k(t)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Migrate(context.Background(), in, Pipe); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), in.ByteSize()*5/4; got > limit {
		t.Fatalf("migratePipe allocated %d B for a %d B batch, budget %d", got, in.ByteSize(), limit)
	}
}
