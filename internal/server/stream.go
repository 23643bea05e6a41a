// POST /query/stream: the buffered /query answer in NDJSON. The request
// runs exactly as on /query — root probe, single-flight, admission,
// execution — and once the outcome is finished and the worker slot released,
// the outcome is written one JSON record per line, each flushed:
//
//	{"type":"schema","columns":["pid","age"],"types":["int64","int64"]}
//	{"type":"batch","rows":[[1,64],[2,71],...]}           (repeated)
//	{"type":"summary","row_count":812,...}                (terminal; same
//	    fields as the buffered QueryResponse minus "rows")
//	{"type":"error","error":"...","status":504}           (terminal, instead
//	    of summary, when the stream fails after its first record)
//
// A request that fails before it has an outcome answers the same HTTP
// status /query would. After the first record the status line is gone, so
// what can still fail — a value JSON cannot carry, the request deadline, a
// context canceled between records — travels in-band as the trailing error
// record; clients must treat a stream without a summary record as failed.
//
// Records are cut in one place, ndjsonStream.EmitBatch, from the finished
// batch, so a root-probe hit's or a single-flight follower's stream is
// byte-identical to that of the execution that produced it. No worker slot
// waits on a client's read cadence: a stalled reader holds only its own
// goroutine and the result it is being sent.
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

// ndjsonStream writes a finished outcome to an HTTP response: schema, batch
// and terminal records go out as NDJSON lines, each followed by a flush. It
// enforces the per-request row cap (summary row_count still reports the full
// count, matching the buffered response) and records first-byte latency plus
// streamed-row counters.
type ndjsonStream struct {
	ctx     context.Context // the request's, read between batch records
	s       *Server
	w       http.ResponseWriter
	fl      http.Flusher // nil when the transport cannot flush
	t0      time.Time
	timeout time.Duration // the request's budget, for wording a 504
	maxRows int

	started bool // first byte flushed; HTTP status is committed
}

// newNDJSONStream answers /query/stream on w under the request's context
// and budget.
//
// A ctx deadline cannot interrupt a socket write blocked on a client that
// stopped reading, so the whole response is bounded by a write deadline
// (the request budget + a transfer grace period): a stalled reader fails the
// write instead of keeping its goroutine, and the result it pins, forever.
// Transports without deadline support (test recorders) just skip it.
func newNDJSONStream(ctx context.Context, s *Server, w http.ResponseWriter, maxRows int, t0 time.Time, timeout time.Duration) *ndjsonStream {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout + streamWriteGrace))
	fl, _ := w.(http.Flusher)
	return &ndjsonStream{ctx: ctx, s: s, w: w, fl: fl, t0: t0, timeout: timeout, maxRows: maxRows}
}

// streamWriteGrace is how long past the request deadline a stream may spend
// on the wire before a blocked write gives up. Generous for slow-but-alive
// readers; finite so a stalled reader cannot hold its goroutine and result
// memory indefinitely.
const streamWriteGrace = 30 * time.Second

// errStreamWrite marks a failure to write to the streaming client — the
// client went away, not the query — which fail counts as an abort. A record
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

// StartStream announces the schema.
func (st *ndjsonStream) StartStream(schema cast.Schema) error {
	rec := streamSchemaRecord{Type: "schema", Columns: make([]string, schema.Len()), Types: make([]string, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		rec.Columns[i] = schema.Col(i).Name
		rec.Types[i] = schema.Col(i).Type.String()
	}
	return st.writeRecord(rec)
}

// EmitBatch is the one place a result is cut into wire records: rows up to
// the row cap, relational.ChunkRows to a batch record, the request context
// read before each. Rows past the cap are not sent (the execution has run to
// completion, so the summary carries the true row count, exactly like
// /query).
func (st *ndjsonStream) EmitBatch(b *cast.Batch) error {
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

// deliver writes a finished outcome, whichever layer produced it: the
// schema and batch records of the first sink (none for a model or an empty
// program), the trace record when asked for, and the summary. Whatever goes
// wrong on the way is reported as fail reports it.
func (st *ndjsonStream) deliver(res *core.Results, resp *QueryResponse, tree *obs.Tree) {
	var err error
	if b := res.First().Batch; b != nil {
		if err = st.StartStream(b.Schema()); err == nil {
			err = st.EmitBatch(b)
		}
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

// fail reports a failure of delivering an outcome: a first record that
// cannot be encoded leaves as a plain HTTP error; after the first byte the
// failure travels as the terminal in-band error record — writeQueryError is
// structurally unreachable there, since the 200 status line left with the
// first flush. No delivery failure is a refusal, so no tenant is charged.
func (st *ndjsonStream) fail(err error) {
	if !st.started {
		st.s.writeQueryError(st.w, nil, err, st.timeout)
		return
	}
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
	status, msg, _ := st.s.classifyQueryError(nil, err, st.timeout)
	if werr := st.writeRecord(streamErrorRecord{Type: "error", Error: msg, Status: status}); werr != nil {
		st.s.st.streamAborted.Inc()
		return
	}
	st.s.st.streamErrorsInband.Inc()
}
