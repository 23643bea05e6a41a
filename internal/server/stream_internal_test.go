package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
)

// TestStreamSingleFlightFollowerReplay: a streaming request that joins an
// in-flight identical execution as a single-flight follower must receive a
// COMPLETE replay — schema, every batch, summary with single_flight set —
// not a truncated or empty stream. The leader is held mid-execution by a
// slow adapter hook so the follower deterministically arrives while the
// flight is open.
func TestStreamSingleFlightFollowerReplay(t *testing.T) {
	store := kvstore.New("kv-slow")
	const rows = 3000
	for i := 0; i < rows; i++ {
		store.Put(fmt.Sprintf("user/%06d", i), []byte("v"))
	}

	entered := make(chan struct{})
	var once sync.Once
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(&mutatingAdapter{
		Adapter: adapter.NewKV("kv-slow", store),
		hook: func() {
			once.Do(func() { close(entered) })
			time.Sleep(600 * time.Millisecond)
		},
	})
	s := New(rt, compiler.Options{}, Config{MaxRows: 10000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"frontend":"program","program":[{"id":"k","op":"kvscan","engine":"kv-slow","prefix":"user/"}]}`

	// Leader: a buffered request that will sit in the slow adapter.
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			leaderDone <- err
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			leaderDone <- fmt.Errorf("leader status %d", resp.StatusCode)
			return
		}
		leaderDone <- nil
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the adapter")
	}

	// Follower: identical body on the streaming endpoint while the leader
	// still executes.
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower status %d: %s", resp.StatusCode, raw)
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}

	var sawSchema, sawSummary bool
	var got int
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	for dec.More() {
		var line struct {
			Type         string  `json:"type"`
			Rows         [][]any `json:"rows"`
			RowCount     int     `json:"row_count"`
			SingleFlight bool    `json:"single_flight"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("bad NDJSON: %v\n%s", err, raw)
		}
		switch line.Type {
		case "schema":
			sawSchema = true
		case "batch":
			got += len(line.Rows)
		case "summary":
			sawSummary = true
			if !line.SingleFlight {
				t.Fatal("follower summary does not report single_flight")
			}
			if line.RowCount != rows {
				t.Fatalf("summary row_count = %d, want %d", line.RowCount, rows)
			}
		}
	}
	if !sawSchema || !sawSummary {
		t.Fatalf("incomplete replay: schema=%v summary=%v", sawSchema, sawSummary)
	}
	if got != rows {
		t.Fatalf("follower replay carried %d rows, want %d", got, rows)
	}
	if shared := s.st.flightShared.Value(); shared == 0 {
		t.Fatal("no single-flight share recorded — the follower ran its own execution")
	}
}

// cutterBatch is a rows-row batch of one int64 column k = row index.
func cutterBatch(t *testing.T, rows int) *cast.Batch {
	t.Helper()
	b := cast.NewBatch(cast.MustSchema(cast.Column{Name: "k", Type: cast.Int64}), rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// batchRecords decodes the batch records of an NDJSON body into their row
// counts.
func batchRecords(t *testing.T, body string) []int {
	t.Helper()
	var sizes []int
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var rec struct {
			Type string  `json:"type"`
			Rows [][]any `json:"rows"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("bad NDJSON: %v\n%s", err, body)
		}
		if rec.Type == "batch" {
			sizes = append(sizes, len(rec.Rows))
		}
	}
	return sizes
}

// TestEmitBatchCutsUnderRowCap: one EmitBatch of 2500 rows under a 1500-row
// cap writes a full record and the cap's remainder, and stream_rows counts
// exactly the rows that left.
func TestEmitBatchCutsUnderRowCap(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	rec := httptest.NewRecorder()
	st := newNDJSONStream(context.Background(), s, rec, 1500, time.Now(), time.Minute)
	b := cutterBatch(t, 2500)
	if err := st.StartStream(b.Schema()); err != nil {
		t.Fatal(err)
	}
	rows := s.st.streamRows.Value()
	if err := st.EmitBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := batchRecords(t, rec.Body.String()); len(got) != 2 || got[0] != 1024 || got[1] != 476 {
		t.Fatalf("records of %v rows, want [1024 476]", got)
	}
	if got := s.st.streamRows.Value() - rows; got != 1500 {
		t.Fatalf("stream_rows grew by %d, want 1500", got)
	}
}

// cancelOnWrite is a response that cancels the request context once it has
// taken n writes.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	n      int
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.ResponseRecorder.Write(p)
}

// TestEmitBatchStopsWhenCanceled: the cutter reads the request context
// between records, so a client gone after the first batch record gets no
// second one and the emission ends with the context's error.
func TestEmitBatchStopsWhenCanceled(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), n: 2, cancel: cancel} // schema, then one batch
	st := newNDJSONStream(ctx, s, w, 1<<20, time.Now(), time.Minute)
	b := cutterBatch(t, 3000)
	if err := st.StartStream(b.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := st.EmitBatch(b); !errors.Is(err, context.Canceled) {
		t.Fatalf("EmitBatch = %v, want context.Canceled", err)
	}
	if got := batchRecords(t, w.Body.String()); len(got) != 1 || got[0] != 1024 {
		t.Fatalf("records of %v rows went out, want only the first [1024]", got)
	}
}

// TestEmitBatchDeadlineInBand: a request deadline that passes after the
// schema record makes EmitBatch return DeadlineExceeded, and fail ends the
// committed 200 with an in-band 504 record counted under
// stream_errors_inband.
func TestEmitBatchDeadlineInBand(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	const budget = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	rec := httptest.NewRecorder()
	st := newNDJSONStream(ctx, s, rec, 1<<20, time.Now(), budget)
	b := cutterBatch(t, 3000)
	if err := st.StartStream(b.Schema()); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	inband := s.st.streamErrorsInband.Value()
	err := st.EmitBatch(b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EmitBatch = %v, want context.DeadlineExceeded", err)
	}
	st.fail(err)
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	const want = `{"type":"error","error":"deadline exceeded after 20ms","status":504}`
	if rec.Code != http.StatusOK || len(lines) != 2 || lines[1] != want {
		t.Fatalf("status %d, records %q, want the schema then %s", rec.Code, lines, want)
	}
	if got := s.st.streamErrorsInband.Value() - inband; got != 1 {
		t.Fatalf("stream_errors_inband grew by %d, want 1", got)
	}
}
