package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"polystorepp/internal/adapter"
	"polystorepp/internal/backend"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
)

// buildDurableServer assembles the full boot sequence a durable polyserve
// deployment runs: open the WAL backend over dir, attach a fresh store,
// recover, start journaling, and serve over a runtime whose ingest path
// barriers on the backend before acknowledging.
func buildDurableServer(t *testing.T, dir string) (*Server, backend.Backend, backend.RecoverStats) {
	t.Helper()
	store := kvstore.New("kv-events")
	b, err := backend.Open("wal", backend.Config{Dir: dir, Sync: backend.SyncGroup, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	b.Attach("kv-events", store)
	rec, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU(), core.WithDurabilityBarrier(b))
	rt.Register(adapter.NewKV("kv-events", store))
	return New(rt, compiler.Options{}, Config{Backend: b}), b, rec
}

func postJSON(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: bad JSON (%d): %s", path, rec.Code, rec.Body.String())
	}
	return rec, out
}

// TestServerRestartServesAcknowledgedWrites is the end-to-end restart pin:
// a write acknowledged over HTTP must be served byte-identically by a server
// rebuilt over the same data directory after a hard stop (the backend is
// abandoned without Close, as SIGKILL leaves it), and the rebuilt server's
// version vector must land strictly past the pre-crash one so no result
// cached before the crash can alias post-restart state.
func TestServerRestartServesAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	query := `{"frontend":"program","program":[{"id":"a","op":"kvscan","engine":"kv-events","prefix":"crashkey"}]}`

	s1, _, rec1 := buildDurableServer(t, dir)
	if rec1.Recovered {
		t.Fatalf("fresh directory claims recovery: %+v", rec1)
	}
	code, ing := postJSON(t, s1, "/ingest", `{"engine":"kv-events","key":"crashkey","data":"survives"}`)
	if code.Code != http.StatusOK {
		t.Fatalf("ingest: %d %v", code.Code, ing)
	}
	_, q1 := postJSON(t, s1, "/query", query)
	preVersion, _ := q1["data_version"].(float64)
	preRows, _ := json.Marshal(q1["rows"])
	if string(preRows) != `[["crashkey","survives"]]` {
		t.Fatalf("pre-crash rows = %s", preRows)
	}
	// Hard stop: s1 and its backend are simply abandoned.

	s2, b2, rec2 := buildDurableServer(t, dir)
	defer b2.Close()
	if !rec2.Recovered || rec2.Records == 0 {
		t.Fatalf("restart did not replay: %+v", rec2)
	}
	_, q2 := postJSON(t, s2, "/query", query)
	postRows, _ := json.Marshal(q2["rows"])
	if string(postRows) != string(preRows) {
		t.Fatalf("acknowledged write not served after restart: pre %s post %s", preRows, postRows)
	}
	postVersion, _ := q2["data_version"].(float64)
	if postVersion <= preVersion {
		t.Fatalf("data version did not strictly advance across restart: pre %v post %v", preVersion, postVersion)
	}
	if vv, _ := q2["version_vector"].(string); vv == "" {
		t.Fatal("post-restart response missing version_vector")
	}

	// /stats must attribute the recovery: replay_records > 0 on the
	// backend block.
	_, stats := postJSON(t, s2, "/stats", "")
	bk, _ := stats["backend"].(map[string]any)
	if bk == nil {
		t.Fatalf("/stats missing backend block: %v", stats)
	}
	if replayed, _ := bk["replay_records"].(float64); replayed == 0 {
		t.Fatalf("/stats backend.replay_records = %v, want > 0", bk["replay_records"])
	}
	if durable, _ := bk["durable"].(bool); !durable {
		t.Fatalf("/stats backend.durable = %v, want true", bk["durable"])
	}
}

// TestServerRestartColdCacheKeys pins the cache-aliasing seam directly: the
// version vector a query reports after restart differs from the one the same
// query reported before the crash, so cache keys from the killed process
// can never match.
func TestServerRestartColdCacheKeys(t *testing.T) {
	dir := t.TempDir()
	query := `{"frontend":"program","program":[{"id":"a","op":"kvscan","engine":"kv-events","prefix":"k"}]}`

	s1, _, _ := buildDurableServer(t, dir)
	postJSON(t, s1, "/ingest", `{"engine":"kv-events","key":"k1","data":"v1"}`)
	_, q1 := postJSON(t, s1, "/query", query)
	preVV, _ := q1["version_vector"].(string)

	s2, b2, _ := buildDurableServer(t, dir)
	defer b2.Close()
	_, q2 := postJSON(t, s2, "/query", query)
	postVV, _ := q2["version_vector"].(string)
	if preVV == "" || postVV == "" {
		t.Fatalf("missing version vectors: pre %q post %q", preVV, postVV)
	}
	if preVV == postVV {
		t.Fatalf("version vector identical across restart (%q): stale cache entries could alias", preVV)
	}
}

// TestIngestBeforeStartNotAcknowledged: a runtime that barriers on a backend
// which has recovered but not started journals nothing, so a write there must
// fail as core.ErrDurability (503 on /ingest) instead of being acknowledged
// and then missing from the next recovery.
func TestIngestBeforeStartNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	store := kvstore.New("kv-events")
	b, err := backend.Open("wal", backend.Config{Dir: dir, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	b.Attach("kv-events", store)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(hw.NewHostCPU(), core.WithDurabilityBarrier(b))
	rt.Register(adapter.NewKV("kv-events", store))
	if err := rt.Ingest(context.Background(), "kv-events", adapter.Ingest{Key: "k", Data: []byte("v")}); !errors.Is(err, core.ErrDurability) {
		t.Fatalf("Ingest before Start: want core.ErrDurability, got %v", err)
	}
	s := New(rt, compiler.Options{}, Config{Backend: b})
	if rec, body := postJSON(t, s, "/ingest", `{"engine":"kv-events","key":"k2","data":"v2"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/ingest before Start: %d %v, want 503", rec.Code, body)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := backend.Open("wal", backend.Config{Dir: dir, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.Attach("kv-events", kvstore.New("kv-events"))
	if rec, err := b2.Recover(); err != nil || rec.Recovered {
		t.Fatalf("reopened directory: %+v, %v; want nothing recovered, since nothing was acknowledged", rec, err)
	}
}
