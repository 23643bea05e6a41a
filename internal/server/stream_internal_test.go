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
	"polystorepp/internal/ir"
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

// brokenSink simulates a streaming client whose connection died: every
// write fails the way ndjsonStream.writeRecord fails (wrapped as
// errStreamWrite).
type brokenSink struct{}

func (brokenSink) StartStream(ir.NodeID, cast.Schema) error {
	return fmt.Errorf("%w: write tcp: broken pipe", errStreamWrite)
}
func (brokenSink) EmitBatch(ir.NodeID, *cast.Batch) error {
	return fmt.Errorf("%w: write tcp: broken pipe", errStreamWrite)
}

// TestStreamLeaderClientGoneFollowerReelects: when a streaming single-
// flight leader dies because ITS client stopped reading (a sink write
// failure, not a query failure), a healthy follower must re-enter the
// flight group and elect a new leader instead of inheriting a 500 for a
// query that would succeed.
func TestStreamLeaderClientGoneFollowerReelects(t *testing.T) {
	store := kvstore.New("kv-slow")
	const rows = 100
	for i := 0; i < rows; i++ {
		store.Put(fmt.Sprintf("user/%04d", i), []byte("v"))
	}
	entered := make(chan struct{})
	var once sync.Once
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(&mutatingAdapter{
		Adapter: adapter.NewKV("kv-slow", store),
		hook: func() {
			once.Do(func() { close(entered) })
			time.Sleep(300 * time.Millisecond)
		},
	})
	s := New(rt, compiler.Options{}, Config{})
	p := &preparedQuery{req: QueryRequest{Frontend: "program",
		Program: []ProgramStep{{ID: "k", Op: "kvscan", Engine: "kv-slow", Prefix: "user/"}}}}
	if err := s.prepare(p, "", s.tenants.state("")); err != nil {
		t.Fatal(err)
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.runQuery(context.Background(), p, brokenSink{})
		leaderErr <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the adapter")
	}

	out, err := s.runQuery(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("follower inherited the streaming leader's client failure: %v", err)
	}
	if got := out.res.First().Batch.Rows(); got != rows {
		t.Fatalf("follower rows = %d, want %d", got, rows)
	}
	if err := <-leaderErr; !errors.Is(err, errStreamWrite) {
		t.Fatalf("leader error = %v, want errStreamWrite", err)
	}
}
