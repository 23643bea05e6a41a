// Package migrate implements the data migrator (DM) of Polystore++
// (§III-A3): moving batches between data-processing engines over three
// transports with very different cost profiles:
//
//   - CSV: the naive portable path — export to text, ship the file,
//     re-parse at the destination. Every value round-trips through text.
//   - Pipe: PipeGen-style binary network pipes — columnar binary chunks
//     streamed over a real TCP loopback connection, no disk, no text.
//   - RDMA: zero-copy handoff modelling an RDMA NIC — no serialization at
//     all; the receiver gets the batch memory directly and only the
//     NIC-model transfer cost is charged.
//
// Every migration reports a breakdown (serialize/transfer/deserialize wall
// time plus simulated device cost) so experiments can reproduce PipeGen's
// observation that "most of the time is spent transforming data types".
package migrate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"polystorepp/internal/cast"
	"polystorepp/internal/hw"
)

// Transport selects the migration path.
type Transport int

// Transports.
const (
	CSV Transport = iota + 1
	Pipe
	RDMA
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case CSV:
		return "csv"
	case Pipe:
		return "pipe"
	case RDMA:
		return "rdma"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// ErrTransport reports transport-level failures.
var ErrTransport = errors.New("migrate: transport")

// Breakdown is the migration cost report.
type Breakdown struct {
	WireBytes   int64
	Serialize   time.Duration // wall time spent encoding at the source
	Transfer    time.Duration // wall time on the wire
	Deserialize time.Duration // wall time decoding at the destination
	// Sim is the simulated cost: CPU serialize/deserialize kernels (or the
	// accelerator's, when offloaded) plus the NIC/link transfer model.
	Sim hw.Cost
}

// Total returns the end-to-end wall time.
func (b Breakdown) Total() time.Duration { return b.Serialize + b.Transfer + b.Deserialize }

// Migrator moves batches between engines. Configure with options.
type Migrator struct {
	host *hw.Device // CPU charged for serialization by default
	nic  *hw.Device // NIC model for RDMA transfers
	// accel, when set, serializes/deserializes on this device instead of
	// the host CPU (§III-A3: "offload serialization algorithms to an
	// accelerator").
	accel     *hw.Device
	accelMode hw.Mode
	// chunkRows is the pipe chunk size in rows: 4096, lowered by tests to
	// cross chunk boundaries with small batches.
	chunkRows int
}

// Option configures a Migrator.
type Option func(*Migrator)

// WithAccelerator offloads (de)serialization to the device in the given
// deployment mode.
func WithAccelerator(d *hw.Device, mode hw.Mode) Option {
	return func(m *Migrator) { m.accel = d; m.accelMode = mode }
}

// New returns a migrator charging simulated cost to the given host CPU and
// NIC models (either may be nil to skip simulation accounting).
func New(host, nic *hw.Device, opts ...Option) *Migrator {
	m := &Migrator{host: host, nic: nic, chunkRows: 4096}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Migrate moves b over the chosen transport and returns the received batch
// plus the cost breakdown. The returned batch is always independent of the
// input.
func (m *Migrator) Migrate(ctx context.Context, b *cast.Batch, tr Transport) (*cast.Batch, Breakdown, error) {
	switch tr {
	case CSV:
		return m.migrateCSV(ctx, b)
	case Pipe:
		return m.migratePipe(ctx, b)
	case RDMA:
		return m.migrateRDMA(ctx, b)
	default:
		return nil, Breakdown{}, fmt.Errorf("%w: unknown transport %d", ErrTransport, int(tr))
	}
}

// serializeSim returns the simulated cost of encoding/decoding `bytes`
// payload bytes, on the accelerator when configured, else the host CPU.
func (m *Migrator) serializeSim(class hw.KernelClass, bytes int64) hw.Cost {
	w := hw.Work{Bytes: bytes, Items: bytes / 8}
	if m.accel != nil {
		if c, err := m.accel.Offload(m.accelMode, class, w, 0); err == nil {
			return c
		}
	}
	if m.host != nil {
		if c, err := m.host.HostCost(class, w); err == nil {
			return c
		}
	}
	return hw.Zero
}

func (m *Migrator) migrateCSV(ctx context.Context, b *cast.Batch) (*cast.Batch, Breakdown, error) {
	if err := ctx.Err(); err != nil {
		return nil, Breakdown{}, err
	}
	var bd Breakdown

	t0 := time.Now()
	var buf bytes.Buffer
	if err := cast.WriteCSV(&buf, b); err != nil {
		return nil, bd, fmt.Errorf("%w: csv encode: %v", ErrTransport, err)
	}
	bd.Serialize = time.Since(t0)
	bd.WireBytes = int64(buf.Len())

	// CSV "transfer": the file crosses the same network, at CSV size. Wall
	// time for the copy is measured; network time is simulated.
	t1 := time.Now()
	wire := make([]byte, buf.Len())
	copy(wire, buf.Bytes())
	bd.Transfer = time.Since(t1)

	t2 := time.Now()
	out, err := cast.ReadCSV(bytes.NewReader(wire), b.Schema())
	if err != nil {
		return nil, bd, fmt.Errorf("%w: csv decode: %v", ErrTransport, err)
	}
	bd.Deserialize = time.Since(t2)

	// Simulated cost: text encode is ~5x binary work per byte; charged as
	// serialize+deserialize of the (larger) CSV payload plus NIC transfer.
	sim := m.serializeSim(hw.KSerialize, bd.WireBytes*3)
	sim = sim.AddSeq(m.serializeSim(hw.KDeserialize, bd.WireBytes*3))
	if m.nic != nil {
		sim = sim.AddSeq(m.nic.TransferCost(bd.WireBytes))
	}
	bd.Sim = sim
	return out, bd, nil
}

// The pipe's sender encodes through a pooled buffer and its receiver decodes
// out of a pooled read buffer, so a migration allocates the received batch
// and little else.
var (
	pipeWriters = sync.Pool{New: func() any { return cast.NewStreamWriter(nil) }}
	pipeReaders = sync.Pool{New: func() any { return cast.NewStreamReader(nil) }}
)

type recvResult struct {
	batch *cast.Batch
	dur   time.Duration
	err   error
}

// receivePipe accepts the one connection of a migration and decodes its
// chunks straight into a single batch of the announced size. It returns once
// the stream ends or the sender closes the connection.
func receivePipe(ln net.Listener, s cast.Schema, rows int) recvResult {
	conn, err := ln.Accept()
	if err != nil {
		return recvResult{err: err}
	}
	defer func() { _ = conn.Close() }()
	t := time.Now()
	sr := pipeReaders.Get().(*cast.StreamReader)
	defer pipeReaders.Put(sr)
	sr.Reset(conn)
	out := cast.NewBatch(s, rows)
	for {
		if err := sr.AppendChunk(out); errors.Is(err, io.EOF) {
			return recvResult{batch: out, dur: time.Since(t)}
		} else if err != nil {
			return recvResult{err: err}
		}
	}
}

// sendPipe streams b over conn as zero-copy row-range chunks and closes it.
func (m *Migrator) sendPipe(ctx context.Context, conn net.Conn, b *cast.Batch) (err error) {
	defer func() {
		if cerr := conn.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("%w: close conn: %v", ErrTransport, cerr)
		}
	}()
	sw := pipeWriters.Get().(*cast.StreamWriter)
	defer pipeWriters.Put(sw)
	sw.Reset(conn)
	// An empty batch is an empty stream: the receiver already has the schema.
	if err := b.ForEachChunk(m.chunkRows, func(chunk *cast.Batch) error {
		// Checked per chunk: closing the connection short of the end marker
		// is what stops the receiver of a canceled request.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sw.WriteChunk(chunk); err != nil {
			return fmt.Errorf("%w: write chunk: %v", ErrTransport, err)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("%w: close stream: %v", ErrTransport, err)
	}
	return nil
}

func (m *Migrator) migratePipe(ctx context.Context, b *cast.Batch) (*cast.Batch, Breakdown, error) {
	if err := ctx.Err(); err != nil {
		return nil, Breakdown{}, err
	}
	var bd Breakdown
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, bd, fmt.Errorf("%w: listen: %v", ErrTransport, err)
	}
	done := make(chan recvResult, 1)
	go func() { done <- receivePipe(ln, b.Schema(), b.Rows()) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close() // fails the pending Accept
		<-done
		return nil, bd, fmt.Errorf("%w: dial: %v", ErrTransport, err)
	}
	t0 := time.Now()
	err = m.sendPipe(ctx, conn, b)
	sendDur := time.Since(t0)
	// The connection is closed on every path out of sendPipe, so the receiver
	// finishes: the migration never outlives its goroutine.
	res := <-done
	_ = ln.Close()
	if cerr := ctx.Err(); cerr != nil {
		return nil, bd, cerr
	}
	if err != nil {
		return nil, bd, err
	}
	if res.err != nil {
		return nil, bd, fmt.Errorf("%w: receive: %v", ErrTransport, res.err)
	}
	bd.WireBytes = b.ByteSize() // columnar binary ≈ payload size
	// The pipe interleaves serialize+transfer on the send side and
	// transfer+deserialize on the receive side; attribute send wall time to
	// Serialize and receive wall time to Deserialize, leaving Transfer as
	// the simulated wire time.
	bd.Serialize = sendDur
	bd.Deserialize = res.dur
	sim := m.serializeSim(hw.KSerialize, bd.WireBytes)
	sim = sim.AddSeq(m.serializeSim(hw.KDeserialize, bd.WireBytes))
	if m.nic != nil {
		sim = sim.AddSeq(m.nic.TransferCost(bd.WireBytes))
	}
	bd.Sim = sim
	return res.batch, bd, nil
}

func (m *Migrator) migrateRDMA(ctx context.Context, b *cast.Batch) (*cast.Batch, Breakdown, error) {
	if err := ctx.Err(); err != nil {
		return nil, Breakdown{}, err
	}
	bd := Breakdown{WireBytes: b.ByteSize()}
	// Zero-copy: the receiver maps the sender's memory; only the wall time
	// of the (pointer) handoff is real, plus the modelled NIC wire time.
	t0 := time.Now()
	out := b.Clone() // process isolation stand-in: one memcpy, no encode
	bd.Transfer = time.Since(t0)
	if m.nic != nil {
		bd.Sim = m.nic.TransferCost(bd.WireBytes)
	}
	return out, bd, nil
}
