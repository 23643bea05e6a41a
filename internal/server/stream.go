// POST /query/stream: the partial-result serving path. The polystore starts
// delivering rows as soon as the plan's sink node has run — while the rest of
// the plan may still be executing — instead of after the whole execution:
// the incremental result delivery MISO-style federated execution and
// BigDAWG's island shims lean on to hide cross-engine latency.
//
// The response is NDJSON (one JSON record per line), flushed per record:
//
//	{"type":"schema","columns":["pid","age"],"types":["int64","int64"]}
//	{"type":"batch","rows":[[1,64],[2,71],...]}           (repeated)
//	{"type":"summary","row_count":812,...}                (terminal; same
//	    fields as the buffered QueryResponse minus "rows")
//	{"type":"error","error":"...","status":504}           (terminal, instead
//	    of summary, when the query fails after the stream started)
//
// Errors before the first flushed byte still use plain HTTP status codes —
// exactly the ones /query would return; a failure of the sink node itself is
// one of them. After the first byte the status line is gone, so failures
// travel in-band as the trailing error record; clients must treat a stream
// without a summary record as failed.
//
// Records are cut in one place, ndjsonStream.EmitBatch: a live execution, a
// subplan-cache hit and a buffered outcome replayed here all hand it the same
// finished batch, so a replayed stream is byte-identical to the live one.
//
// The streaming path shares every serving acceleration with /query:
// admission control (the stream holds a worker slot only while executing),
// the result cache (hits replay cached batches; misses tee into the cache
// through the same byte-bounded admission), and single-flight (a streaming
// leader streams live; followers — streaming or buffered — get the complete
// buffered outcome, which a streaming follower then replays).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"polystorepp/internal/cast"
	"polystorepp/internal/core"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
	"polystorepp/internal/relational"
)

// streamSchemaRecord is the first NDJSON line of a tabular stream.
type streamSchemaRecord struct {
	Type    string   `json:"type"` // "schema"
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
}

// streamSummaryRecord terminates a successful stream with the same
// serving metadata the buffered QueryResponse carries (minus "rows").
type streamSummaryRecord struct {
	Type string `json:"type"` // "summary"
	*QueryResponse
}

// streamTraceRecord carries the request's span tree, emitted immediately
// before the summary record when the request set "trace": true. Placed
// before the summary so "summary is the terminal record of a successful
// stream" stays true for every client.
type streamTraceRecord struct {
	Type  string    `json:"type"` // "trace"
	Trace *obs.Tree `json:"trace"`
}

// streamErrorRecord terminates a failed stream in-band, carrying the HTTP
// status the failure would have mapped to before the first byte.
type streamErrorRecord struct {
	Type   string `json:"type"` // "error"
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// ndjsonStream adapts an HTTP response to core.ResultSink: schema, batch
// and terminal records go out as NDJSON lines, each followed by a flush so
// partial results reach the client while execution continues. It enforces
// the per-request row cap (summary row_count still reports the full count,
// matching the buffered response) and records first-byte latency plus
// streamed-row counters.
type ndjsonStream struct {
	ctx     context.Context // the request's, read between batch records
	s       *Server
	w       http.ResponseWriter
	ts      *tenantState // the requesting tenant, for counting a refusal
	fl      http.Flusher // nil when the transport cannot flush
	t0      time.Time
	timeout time.Duration // the request's budget, for wording a 504
	maxRows int

	started bool // first byte flushed; HTTP status is committed
}

// newNDJSONStream answers /query/stream on w under the request's context
// and execution budget.
//
// Streaming writes happen while the request holds its worker slot, and a ctx
// deadline cannot interrupt a socket write blocked on a client that stopped
// reading. The whole response is therefore bounded by a write deadline
// (execution budget + a transfer grace period) so stalled readers fail the
// write — freeing the slot — instead of pinning a worker forever. Transports
// without deadline support (test recorders) just skip it.
func newNDJSONStream(ctx context.Context, s *Server, w http.ResponseWriter, ts *tenantState, maxRows int, t0 time.Time, timeout time.Duration) *ndjsonStream {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout + streamWriteGrace))
	fl, _ := w.(http.Flusher)
	return &ndjsonStream{ctx: ctx, s: s, w: w, ts: ts, fl: fl, t0: t0, timeout: timeout, maxRows: maxRows}
}

// streamWriteGrace is how long past the execution deadline a streaming
// response may spend on the wire before a blocked write gives up. Generous
// for slow-but-alive readers; finite so a stalled reader cannot hold a
// worker slot indefinitely.
const streamWriteGrace = 30 * time.Second

// errStreamWrite marks a failure to write to the streaming client — the
// client went away, not the query. Single-flight treats a leader dying of
// it like a canceled leader (followers re-elect instead of inheriting a
// 500), and the leader's own response maps to the never-seen 499. A record
// that cannot be encoded is the query's failure and is not wrapped in it.
var errStreamWrite = errors.New("server: stream client write failed")

// write sends one encoded NDJSON line and flushes it.
func (st *ndjsonStream) write(line []byte) error {
	if !st.started {
		st.started = true
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.s.st.ttfr.Observe(time.Since(st.t0).Seconds())
	}
	if _, err := st.w.Write(line); err != nil {
		return fmt.Errorf("%w: %v", errStreamWrite, err)
	}
	if st.fl != nil {
		st.fl.Flush()
	}
	return nil
}

// writeRecord marshals one NDJSON line — every record but the row batches —
// and sends it.
func (st *ndjsonStream) writeRecord(v any) error {
	buf := getWireBuf()
	defer putWireBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("encode %T: %w", v, err)
	}
	return st.write(buf.b)
}

// StartStream implements core.ResultSink: announce the schema.
func (st *ndjsonStream) StartStream(_ ir.NodeID, schema cast.Schema) error {
	rec := streamSchemaRecord{Type: "schema", Columns: make([]string, schema.Len()), Types: make([]string, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		rec.Columns[i] = schema.Col(i).Name
		rec.Types[i] = schema.Col(i).Type.String()
	}
	return st.writeRecord(rec)
}

// EmitBatch implements core.ResultSink, and is the one place a result is cut
// into wire records: rows up to the row cap, relational.ChunkRows to a batch
// record, the request context read before each. Rows past the cap are not
// sent (the execution has run to completion, so the result cache holds the
// full result and the summary the true row count, exactly like /query).
func (st *ndjsonStream) EmitBatch(_ ir.NodeID, b *cast.Batch) error {
	n := min(b.Rows(), st.maxRows)
	for lo := 0; lo < n; lo += relational.ChunkRows {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		if err := st.emitRows(b, lo, min(lo+relational.ChunkRows, n)); err != nil {
			return err
		}
	}
	return nil
}

// emitRows sends rows [lo, hi) of b as one {"type":"batch","rows":[[..],..]}
// line, encoded from the typed columns into a pooled buffer: one Write and
// one Flush per record, nothing allocated per row.
func (st *ndjsonStream) emitRows(b *cast.Batch, lo, hi int) error {
	buf := getWireBuf()
	defer putWireBuf(buf)
	line, err := b.AppendJSONRows(append(buf.b, `{"type":"batch","rows":`...), lo, hi)
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	buf.b = append(line, '}', '\n') // the pool keeps what the line grew to
	if err := st.write(buf.b); err != nil {
		return err
	}
	st.s.st.streamRows.Add(int64(hi - lo))
	st.s.st.streamBatches.Inc()
	return nil
}

// replay streams a buffered outcome — a result-cache hit or a single-flight
// follower's shared result — as if it had executed live: the same
// StartStream and EmitBatch calls core makes, so the two are byte-identical
// on the wire.
func (st *ndjsonStream) replay(res *core.Results) error {
	b := res.First().Batch
	if b == nil {
		return nil // model or empty result: summary-only stream
	}
	if err := st.StartStream(0, b.Schema()); err != nil {
		return err
	}
	return st.EmitBatch(0, b)
}

// deliver completes a served stream: whatever the execution did not stream
// live is replayed, then the trace record (when asked for) and the summary
// close it. Whatever goes wrong on the way is reported as fail reports it.
func (st *ndjsonStream) deliver(res *core.Results, resp *QueryResponse, tree *obs.Tree) {
	var err error
	if !st.started {
		// Cache hit, single-flight follower, or a model-valued sink: the
		// outcome arrived without streaming; replay it through the stream.
		err = st.replay(res)
	}
	if err == nil && tree != nil {
		err = st.writeRecord(streamTraceRecord{Type: "trace", Trace: tree})
	}
	if err == nil {
		err = st.writeRecord(streamSummaryRecord{Type: "summary", QueryResponse: resp})
	}
	if err != nil {
		st.fail(err)
		return
	}
	st.s.st.latency.Observe(time.Since(st.t0).Seconds())
}

// fail reports a failure of runQuery or of delivering its outcome: with
// nothing flushed yet the plain HTTP error path still applies (same statuses
// as /query); after the first byte the failure travels as the terminal
// in-band error record — writeQueryError is structurally unreachable there,
// since the 200 status line left with the first flush.
func (st *ndjsonStream) fail(err error) {
	if !st.started {
		st.s.writeQueryError(st.w, st.ts, err, st.timeout)
		return
	}
	status, msg, _ := st.s.classifyQueryError(st.ts, err, st.timeout)
	if errors.Is(err, errStreamWrite) || errors.Is(err, context.Canceled) {
		// The client is gone — whether a write failed (errStreamWrite) or a
		// per-batch ctx check saw the request context die first (Canceled).
		// There is nobody to deliver an error record to, and counting one
		// as "in-band" would report query failures that never happened. The
		// server-imposed deadline (DeadlineExceeded) is different: that
		// client is alive and owed the trailing 504 record.
		st.s.st.streamAborted.Inc()
		return
	}
	if werr := st.writeRecord(streamErrorRecord{Type: "error", Error: msg, Status: status}); werr != nil {
		st.s.st.streamAborted.Inc()
		return
	}
	st.s.st.streamErrorsInband.Inc()
}
