package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
)

// TestFlightGroupDedup makes the leader block until followers have joined,
// then checks every caller observed the leader's single execution.
func TestFlightGroupDedup(t *testing.T) {
	g := newFlightGroup()
	const followers = 8
	leaderEntered := make(chan struct{})
	releaseLeader := make(chan struct{})
	var executions int

	rep := &core.Report{Latency: 42}
	var wg sync.WaitGroup
	results := make([]struct {
		rep    *core.Report
		shared bool
		err    error
	}, followers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, r, _, shared, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
			close(leaderEntered)
			<-releaseLeader
			executions++
			return &core.Results{}, rep, true, nil
		})
		results[0].rep, results[0].shared, results[0].err = r, shared, err
	}()
	<-leaderEntered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, r, _, shared, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
				t.Error("follower executed fn")
				return nil, nil, false, nil
			})
			results[i].rep, results[i].shared, results[i].err = r, shared, err
		}(i)
	}
	// Followers must be parked on the call before the leader finishes. There
	// is no external signal for "parked", so give them a comfortable window;
	// a follower that somehow misses it would lead its own call and trip the
	// t.Error in its fn.
	time.Sleep(50 * time.Millisecond)
	close(releaseLeader)
	wg.Wait()

	if executions != 1 {
		t.Fatalf("executions = %d, want 1", executions)
	}
	sharedCount := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.rep == nil || r.rep.Latency != 42 {
			t.Fatalf("caller %d got report %+v", i, r.rep)
		}
		if r.shared {
			sharedCount++
		}
	}
	if sharedCount != followers {
		t.Fatalf("shared count = %d, want %d", sharedCount, followers)
	}
}

// TestFlightGroupFollowerDeadline checks a follower with an expired context
// gives up with its own error while the leader completes for others.
func TestFlightGroupFollowerDeadline(t *testing.T) {
	g := newFlightGroup()
	leaderEntered := make(chan struct{})
	releaseLeader := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
			close(leaderEntered)
			<-releaseLeader
			return &core.Results{}, &core.Report{}, false, nil
		})
		done <- err
	}()
	<-leaderEntered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, shared, err := g.do(ctx, "k", func() (*core.Results, *core.Report, bool, error) {
		t.Error("canceled follower executed fn")
		return nil, nil, false, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("follower: shared=%v err=%v, want shared canceled", shared, err)
	}

	close(releaseLeader)
	if err := <-done; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestFlightGroupLeaderPanic checks a panicking leader does not wedge the
// key: waiting followers get errFlightPanic, and the next request for the
// key runs fresh.
func TestFlightGroupLeaderPanic(t *testing.T) {
	g := newFlightGroup()
	leaderEntered := make(chan struct{})
	releaseLeader := make(chan struct{})

	followerErr := make(chan error, 1)
	go func() {
		defer func() { _ = recover() }() // play net/http's role
		_, _, _, _, _ = g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
			close(leaderEntered)
			<-releaseLeader
			panic("adapter bug")
		})
	}()
	<-leaderEntered
	go func() {
		_, _, _, shared, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
			t.Error("follower executed fn")
			return nil, nil, false, nil
		})
		if !shared {
			t.Error("follower was not shared")
		}
		followerErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower park
	close(releaseLeader)
	if err := <-followerErr; !errors.Is(err, errFlightPanic) {
		t.Fatalf("follower err = %v, want errFlightPanic", err)
	}

	// The key must be usable again.
	_, _, _, shared, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
		return &core.Results{}, &core.Report{}, false, nil
	})
	if err != nil || shared {
		t.Fatalf("post-panic call: shared=%v err=%v", shared, err)
	}
}

// TestLeadersGoneMapsTo503 checks a follower that outlived every dying
// leader gets a retryable 503, not the leaders' own 499/504.
func TestLeadersGoneMapsTo503(t *testing.T) {
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	rec := httptest.NewRecorder()
	s.writeQueryError(rec, nil, leadersGone(context.Canceled), time.Second)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

// TestFlightGroupSequentialCallersRunSeparately checks dedup only spans
// overlapping requests: once a call finishes, the next caller leads its own.
func TestFlightGroupSequentialCallersRunSeparately(t *testing.T) {
	g := newFlightGroup()
	runs := 0
	for i := 0; i < 3; i++ {
		_, _, _, shared, err := g.do(context.Background(), "k", func() (*core.Results, *core.Report, bool, error) {
			runs++
			return &core.Results{}, &core.Report{}, false, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
}

// TestIdenticalProgramsTrainOnce sends 8 identical Figure-2 programs at once
// to a fresh server with single-flight on: the server merges them before
// admission, so train runs once, and every response predicts, byte for byte,
// what a server over a cache-off runtime does.
func TestIdenticalProgramsTrainOnce(t *testing.T) {
	const requests = 8
	data := clinicalData(t)
	body, err := json.Marshal(QueryRequest{Frontend: "program", Program: crossEngineProgram(40, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(rec *httptest.ResponseRecorder) string {
		t.Helper()
		var resp struct{ Rows json.RawMessage }
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Rows) == 0 {
			t.Fatalf("status %d, no rows: %s", rec.Code, rec.Body)
		}
		return string(resp.Rows)
	}
	want := rows(serveOn(clinicalServer(data, core.WithSubplanCacheBytes(-1)), "/query", string(body)))

	s := clinicalServer(data)
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, requests)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			recs[i] = serveOn(s, "/query", string(body))
		}()
	}
	close(start)
	wg.Wait()
	for i, rec := range recs {
		if got := rows(rec); got != want {
			t.Fatalf("response %d predicts\n %s\na cache-off runtime\n %s", i, got, want)
		}
	}
	trains := int64(0)
	for _, e := range s.rt.OpStats().Entries() {
		if e.Op == ir.OpTrain.String() {
			trains, _ = e.Latency.Snapshot()
		}
	}
	if trains != 1 {
		t.Fatalf("train ran %d times for %d identical programs, want once", trains, requests)
	}
}
