package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"polystorepp/internal/kvstore"
)

// errSnapshotRefused is what refusingSnapshot's Snapshot fails with.
var errSnapshotRefused = errors.New("snapshot refused")

// refusingSnapshot is a key/value store whose Snapshot always fails: every
// checkpoint fails after it has sealed the active segment.
type refusingSnapshot struct{ *kvstore.Store }

func (refusingSnapshot) Snapshot(io.Writer) error { return errSnapshotRefused }

// TestBackgroundSnapshotFailureLogged: a write that carries the active
// segment past SnapshotBytes starts a background checkpoint; when a store's
// Snapshot fails, the failure is logged, not returned to any writer, every
// acknowledged write still recovers from the log, and Close returns.
func TestBackgroundSnapshotFailureLogged(t *testing.T) {
	dir := t.TempDir()
	logged := make(chan string, 1)
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "backend: background snapshot:") {
			select {
			case logged <- line:
			default:
			}
		}
	}
	b, err := Open("wal", Config{Dir: dir, Sync: SyncGroup, SnapshotBytes: 512, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	live := kvstore.New("kv")
	b.Attach("kv", refusingSnapshot{live})
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; len(acked) < 64; i++ { // 64 writes of ~40 bytes cross 512
		key := fmt.Sprintf("user/%04d", i)
		live.Put(key, []byte(strings.Repeat("v", 32)))
		if err := b.Barrier(context.Background()); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked = append(acked, key)
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, errSnapshotRefused.Error()) {
			t.Fatalf("logged %q, want the snapshot's error", line)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no background snapshot failure was logged")
	}
	if got := b.Stats().SnapshotWrites; got != 0 {
		t.Fatalf("%d snapshots written, want none", got)
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after a failed background snapshot")
	}

	recovered := kvstore.New("kv")
	b2, err := Open("wal", Config{Dir: dir, Sync: SyncGroup, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.Attach("kv", recovered)
	if _, err := b2.Recover(); err != nil {
		t.Fatal(err)
	}
	keys, _ := recovered.ScanPrefix("user/")
	if !slices.Equal(keys, acked) {
		t.Fatalf("recovered %d keys %v, want the %d acknowledged", len(keys), keys, len(acked))
	}
}
