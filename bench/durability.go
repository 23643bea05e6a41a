package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"polystorepp/internal/backend"
	"polystorepp/internal/relational"
	"polystorepp/internal/timeseries"
)

// durabilityReport is what the crash-copy recovery yields.
type durabilityReport struct {
	writes      int // acknowledged writes looked up in the recovered stores
	recordsPerS float64
}

// checkDurability plays a crash: it copies the live WAL directory without
// closing the backend (every acknowledged write was fsynced before its ack,
// so the copy must hold it), recovers the copy into fresh empty stores, and
// requires every acknowledged write to be present and every store version to
// be at least the live store's — which bounds any version a response reported.
func checkDurability(d *deployment, ws *writeState, cfg runConfig) (durabilityReport, error) {
	var rep durabilityReport
	ws.mu.Lock()
	acked := append([]write(nil), ws.acked...)
	ws.mu.Unlock()
	if cfg.corrupt {
		acked = append(acked, write{id: -1}) // a write nobody sent
	}
	rep.writes = len(acked)

	dir, err := os.MkdirTemp(cfg.outDir, "crash-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	if err := copyLiveDir(d, dir); err != nil {
		return rep, err
	}

	relVersion, tsVersion := d.data.rel.Version(), d.data.ts.Version()
	bk, err := backend.Open("wal", backend.Config{Dir: dir, Sync: backend.SyncGroup, SnapshotBytes: -1})
	if err != nil {
		return rep, err
	}
	defer bk.Close()
	rel, ts := relational.NewStore(relEngine), timeseries.New(tsEngine)
	bk.AttachRelational(relEngine, rel)
	bk.AttachTimeseries(tsEngine, ts)
	t0 := time.Now()
	rec, err := bk.Recover()
	took := time.Since(t0)
	if err != nil {
		return rep, fmt.Errorf("recover crash copy: %w", err)
	}
	rep.recordsPerS = float64(rec.Records) / took.Seconds()

	if v := rel.Version(); v < relVersion {
		return rep, fmt.Errorf("recovered %s version %d is behind the live store's %d", relEngine, v, relVersion)
	}
	if v := ts.Version(); v < tsVersion {
		return rep, fmt.Errorf("recovered %s version %d is behind the live store's %d", tsEngine, v, tsVersion)
	}
	audit, err := rel.Table("audit")
	if err != nil {
		return rep, fmt.Errorf("recovered store: %w", err)
	}
	ids, err := audit.Snapshot().Ints(0)
	if err != nil {
		return rep, err
	}
	have := make(map[int64]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	points := map[string]map[int64]bool{}
	for _, w := range acked {
		if w.series == "" {
			if !have[w.id] {
				return rep, fmt.Errorf("acknowledged audit row %d is missing after recovery", w.id)
			}
			continue
		}
		seen, ok := points[w.series]
		if !ok {
			pts, err := ts.Range(w.series, 0, int64(1)<<62)
			if err != nil {
				return rep, fmt.Errorf("acknowledged series %s is missing after recovery: %w", w.series, err)
			}
			seen = make(map[int64]bool, len(pts))
			for _, p := range pts {
				seen[p.TS] = true
			}
			points[w.series] = seen
		}
		if !seen[w.ts] {
			return rep, fmt.Errorf("acknowledged point %s@%d is missing after recovery", w.series, w.ts)
		}
	}
	return rep, nil
}

// copyLiveDir copies the deployment's WAL directory while the backend is
// open. A background compaction can delete a segment or replace the snapshot
// mid-copy; the copy is retried until one completes with no compaction
// overlapping it.
func copyLiveDir(d *deployment, dst string) error {
	for attempt := 0; attempt < 20; attempt++ {
		before := d.bk.Stats().SnapshotWrites
		err := copyFiles(d.walDir, dst)
		if err == nil && d.bk.Stats().SnapshotWrites == before {
			return nil
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if err := clearDir(dst); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("could not copy %s between compactions", d.walDir)
}

func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func clearDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
