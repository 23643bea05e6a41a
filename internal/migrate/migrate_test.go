package migrate

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
)

func testBatch(t testing.TB, n int) *cast.Batch {
	t.Helper()
	s := cast.MustSchema(
		cast.Column{Name: "a", Type: cast.Int64},
		cast.Column{Name: "b", Type: cast.Float64},
		cast.Column{Name: "c", Type: cast.String},
	)
	rng := rand.New(rand.NewSource(1))
	b := cast.NewBatch(s, n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(rng.Int63(), rng.Float64(), "row"); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestAllTransportsRoundTrip(t *testing.T) {
	ctx := context.Background()
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	b := testBatch(t, 5000)
	for _, tr := range []Transport{CSV, Pipe, RDMA} {
		out, bd, err := m.Migrate(ctx, b, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !out.Equal(b) {
			t.Fatalf("%s: corrupted data", tr)
		}
		if bd.WireBytes <= 0 || out.Rows() != 5000 {
			t.Fatalf("%s: breakdown %+v", tr, bd)
		}
	}
}

func TestRDMAReturnsIndependentCopy(t *testing.T) {
	ctx := context.Background()
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	b := testBatch(t, 10)
	out, _, err := m.Migrate(ctx, b, RDMA)
	if err != nil {
		t.Fatal(err)
	}
	ints, _ := b.Ints(0)
	ints[0] = -999
	outInts, _ := out.Ints(0)
	if outInts[0] == -999 {
		t.Fatal("RDMA output aliases input")
	}
}

func TestSimCostOrdering(t *testing.T) {
	ctx := context.Background()
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	b := testBatch(t, 20000)
	sims := map[Transport]float64{}
	for _, tr := range []Transport{CSV, Pipe, RDMA} {
		_, bd, err := m.Migrate(ctx, b, tr)
		if err != nil {
			t.Fatal(err)
		}
		sims[tr] = bd.Sim.Seconds
	}
	if !(sims[CSV] > sims[Pipe] && sims[Pipe] > sims[RDMA]) {
		t.Fatalf("sim ordering violated: %+v", sims)
	}
}

func TestAcceleratedSerializationCheaper(t *testing.T) {
	ctx := context.Background()
	b := testBatch(t, 50000)
	plain := New(hw.NewHostCPU(), hw.NewRDMANIC())
	_, bdPlain, err := plain.Migrate(ctx, b, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	fpga := hw.NewFPGA()
	for _, k := range []hw.KernelClass{hw.KSerialize, hw.KDeserialize} {
		if _, err := fpga.ConfigureKernel(k.String(), hw.LUTCost(k)); err != nil {
			t.Fatal(err)
		}
	}
	accel := New(hw.NewHostCPU(), hw.NewRDMANIC(), WithAccelerator(fpga, hw.BumpInTheWire))
	_, bdAccel, err := accel.Migrate(ctx, b, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if bdAccel.Sim.Seconds >= bdPlain.Sim.Seconds {
		t.Fatalf("accelerated serdes (%v) should beat host (%v)", bdAccel.Sim.Seconds, bdPlain.Sim.Seconds)
	}
}

func TestUnknownTransport(t *testing.T) {
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	if _, _, err := m.Migrate(context.Background(), testBatch(t, 1), Transport(99)); !errors.Is(err, ErrTransport) {
		t.Fatalf("unknown transport: %v", err)
	}
	if Transport(99).String() == "" || CSV.String() != "csv" {
		t.Fatal("Transport.String broken")
	}
}

func TestContextCancelled(t *testing.T) {
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tr := range []Transport{CSV, Pipe, RDMA} {
		if out, _, err := m.Migrate(ctx, testBatch(t, 1), tr); !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("cancelled %s: returned a batch: %t, err %v", tr, out != nil, err)
		}
	}
}

// lateCancel reports cancellation from its n-th Err call on: a request that
// is given up while its batch is on the wire.
type lateCancel struct {
	context.Context
	left atomic.Int32
}

func (c *lateCancel) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A pipe migration canceled before or during the transfer returns the
// context's error, never the batch, and leaves no receiver goroutine behind.
func TestPipeCancellationLeaksNoGoroutine(t *testing.T) {
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	m.chunkRows = 1
	b := testBatch(t, 200)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx := &lateCancel{Context: context.Background()}
		ctx.left.Store(int32(i % 5)) // 0: before listening; else after i%5-1 chunks
		if out, _, err := m.Migrate(ctx, b, Pipe); !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("migration %d: returned a batch: %t, err %v", i, out != nil, err)
		}
	}
	// migratePipe waits for its receiver's result; the goroutine itself may
	// still be a few instructions from gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 cancelled migrations, %d before", runtime.NumGoroutine(), base)
		}
	}
	if out, _, err := m.Migrate(context.Background(), b, Pipe); err != nil || !out.Equal(b) {
		t.Fatalf("migration after the cancelled ones (pooled buffers reused): %v", err)
	}
}

// allTypes is a batch with a column of each type, rows of varied width.
func allTypes(t testing.TB, n int) *cast.Batch {
	t.Helper()
	s := cast.MustSchema(
		cast.Column{Name: "i", Type: cast.Int64},
		cast.Column{Name: "f", Type: cast.Float64},
		cast.Column{Name: "s", Type: cast.String},
		cast.Column{Name: "b", Type: cast.Bool},
		cast.Column{Name: "t", Type: cast.Timestamp},
	)
	rng := rand.New(rand.NewSource(int64(n)))
	b := cast.NewBatch(s, n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(rng.Int63()-rng.Int63(), rng.NormFloat64(), strings.Repeat("é", i%9), i%3 == 0, int64(i)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// The pipe decodes every chunk into one batch: whatever the chunking, the
// output equals the input and owns its storage.
func TestPipeRoundTripEveryTypeAndChunking(t *testing.T) {
	for _, rows := range []int{0, 1000} {
		for _, chunk := range []int{1, 7, 4096} {
			in := allTypes(t, rows)
			m := New(hw.NewHostCPU(), hw.NewRDMANIC())
			m.chunkRows = chunk
			out, bd, err := m.Migrate(context.Background(), in, Pipe)
			if err != nil {
				t.Fatalf("rows=%d chunk=%d: %v", rows, chunk, err)
			}
			if !out.Equal(in) || bd.WireBytes != in.ByteSize() {
				t.Fatalf("rows=%d chunk=%d: output differs from input (breakdown %+v)", rows, chunk, bd)
			}
			if rows == 0 {
				continue
			}
			want := in.Clone()
			ints, _ := in.Ints(0)
			flts, _ := in.Floats(1)
			bools, _ := in.Bools(3)
			stamps, _ := in.Ints(4)
			for i := range ints {
				ints[i], flts[i], bools[i], stamps[i] = -1, -1, !bools[i], -1
			}
			if !out.Equal(want) {
				t.Fatalf("rows=%d chunk=%d: output shares storage with its input", rows, chunk)
			}
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	ctx := context.Background()
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	b := testBatch(t, 0)
	for _, tr := range []Transport{CSV, Pipe, RDMA} {
		out, _, err := m.Migrate(ctx, b, tr)
		if err != nil {
			t.Fatalf("%s empty: %v", tr, err)
		}
		if out.Rows() != 0 {
			t.Fatalf("%s empty rows = %d", tr, out.Rows())
		}
	}
}

func TestChunkedPipe(t *testing.T) {
	ctx := context.Background()
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	m.chunkRows = 100
	b := testBatch(t, 1234) // forces many chunks including a partial tail
	out, _, err := m.Migrate(ctx, b, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(b) {
		t.Fatal("chunked pipe corrupted data")
	}
}

// Property: pipe migration round-trips arbitrary batch sizes and chunk
// configurations.
func TestPropertyPipeRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, chunkRaw uint16) bool {
		ctx := context.Background()
		n := int(nRaw) % 3000
		chunk := int(chunkRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		s := cast.MustSchema(
			cast.Column{Name: "x", Type: cast.Int64},
			cast.Column{Name: "y", Type: cast.String},
		)
		b := cast.NewBatch(s, n)
		for i := 0; i < n; i++ {
			if err := b.AppendRow(rng.Int63(), "v"); err != nil {
				return false
			}
		}
		m := New(hw.NewHostCPU(), hw.NewRDMANIC())
		m.chunkRows = chunk
		out, _, err := m.Migrate(ctx, b, Pipe)
		if err != nil {
			return false
		}
		return out.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// numeric2k is the shape the cross-engine pipeline migrates: a few thousand
// rows of fixed-width columns.
func numeric2k(t testing.TB) *cast.Batch {
	b, err := allTypes(t, 2000).Project("i", "f", "b", "t")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func BenchmarkMigratePipe2k(b *testing.B) {
	m := New(hw.NewHostCPU(), hw.NewRDMANIC())
	in := numeric2k(b)
	b.ReportAllocs()
	b.SetBytes(in.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Migrate(context.Background(), in, Pipe); err != nil {
			b.Fatal(err)
		}
	}
}
