package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// FuzzWALFrame writes arbitrary bytes as one WAL segment and replays it.
// Replay must hand fn exactly the longest prefix of whole, CRC-valid frames
// of at most maxFrame payload bytes, in order; return the sum of their
// payload sizes; report truncated exactly when bytes follow that prefix; cut
// the file on disk to it; and cut nothing when it replays the repaired file.
func FuzzWALFrame(f *testing.F) {
	one, two, empty := frame([]byte("first record")), frame([]byte("second")), frame(nil)
	whole := slices.Concat(one, two, empty)
	f.Add(whole)
	f.Add(whole[:len(one)+5])          // torn header
	f.Add(whole[:len(one)+len(two)-1]) // torn payload
	badCRC := slices.Clone(whole)
	badCRC[len(one)+4] ^= 1
	f.Add(badCRC)
	tooLong := slices.Clone(one)
	binary.LittleEndian.PutUint32(tooLong, maxFrame+1)
	f.Add(tooLong)
	f.Add([]byte{})

	dir := f.TempDir() // executions within one process run one at a time
	path := filepath.Join(dir, segName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]byte
		var wantBytes uint64
		prefix := 0
		for len(data)-prefix >= 8 {
			n := int(binary.LittleEndian.Uint32(data[prefix:]))
			if n > maxFrame || len(data)-prefix-8 < n {
				break
			}
			payload := data[prefix+8 : prefix+8+n]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[prefix+4:]) {
				break
			}
			want = append(want, payload)
			wantBytes += uint64(n)
			prefix += 8 + n
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		collect := func(p []byte) error {
			got = append(got, slices.Clone(p))
			return nil
		}
		n, truncated, err := replaySegments(dir, []uint64{1}, collect)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("replay handed %d payloads, want the %d-frame valid prefix", len(got), len(want))
		}
		if n != wantBytes || truncated != (prefix < len(data)) {
			t.Fatalf("replay = (%d bytes, truncated %t), want (%d, %t)", n, truncated, wantBytes, prefix < len(data))
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(disk, data[:prefix]) {
			t.Fatalf("repaired segment is %d bytes, want the %d-byte valid prefix", len(disk), prefix)
		}

		got = nil
		n, truncated, err = replaySegments(dir, []uint64{1}, collect)
		if err != nil || truncated || n != wantBytes || !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("second replay = (%d bytes, truncated %t, %v, %d payloads), want (%d, false, nil, %d)",
				n, truncated, err, len(got), wantBytes, len(want))
		}
	})
}

// FuzzSnapshotDecode writes arbitrary bytes as the snapshot file and
// restores it into the three stores, seeded with a real snapshot, its
// truncations and a flipped section CRC. restoreSnapshot must never panic
// and never allocate beyond a fixed amount plus a multiple of the file's own
// size, whatever lengths its header and sections claim; a file that fails
// verification restores nothing, and the real snapshot restores whole.
func FuzzSnapshotDecode(f *testing.F) {
	src := newStores(f)
	writeMix(f, src, 0, 40)
	dir := f.TempDir() // executions within one process run one at a time
	if _, err := writeSnapshot(dir, map[string]Durable{"kv": src.kv, "ts": src.ts, "db": src.rel}); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, snapFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for cut := len(snap); cut >= 0; cut -= 1 + len(snap)/16 {
		f.Add(snap[:cut])
	}
	badCRC := slices.Clone(snap)
	badCRC[len(snapMagic)+4+4+len("db")+8] ^= 1 // the first section's CRC
	f.Add(badCRC)
	f.Add(repeatedSection(f, snap, "kv"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newStores(t)
		attached := map[string]Durable{"kv": s.kv, "ts": s.ts, "db": s.rel}
		before := versions(s)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, ok, err := restoreSnapshot(Config{Dir: dir}, attached)
		runtime.ReadMemStats(&m1)
		if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(512<<10+64*len(data)); got > budget {
			t.Fatalf("restoring a %d-byte snapshot allocated %d", len(data), got)
		}
		if (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFormat)) && versions(s) != before {
			t.Fatalf("an unverified snapshot moved store versions %v -> %v (%v)", before, versions(s), err)
		}
		if bytes.Equal(data, snap) {
			if !ok || err != nil {
				t.Fatalf("the real snapshot: ok=%t, %v", ok, err)
			}
			assertEquiv(t, src, s)
		}
	})
}

// repeatedSection returns snap with its sections replaced by two copies of
// the one named name: every CRC matches, only the name order is wrong.
func repeatedSection(t testing.TB, snap []byte, name string) []byte {
	t.Helper()
	off := len(snapMagic) + 4
	for n := binary.LittleEndian.Uint32(snap[len(snapMagic):]); n > 0; n-- {
		nameLen := int(binary.LittleEndian.Uint32(snap[off:]))
		end := off + 4 + nameLen + 12 + int(binary.LittleEndian.Uint64(snap[off+4+nameLen:]))
		if string(snap[off+4:off+4+nameLen]) == name {
			out := append([]byte(snapMagic), 2, 0, 0, 0)
			return append(append(out, snap[off:end]...), snap[off:end]...)
		}
		off = end
	}
	t.Fatalf("snapshot has no section %q", name)
	return nil
}

// TestSnapshotRepeatedSectionRejected: a CRC-valid snapshot that carries one
// store's section twice fails verification and restores nothing.
func TestSnapshotRepeatedSectionRejected(t *testing.T) {
	src := newStores(t)
	writeMix(t, src, 0, 40)
	dir := t.TempDir()
	if _, err := writeSnapshot(dir, map[string]Durable{"kv": src.kv, "ts": src.ts, "db": src.rel}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, repeatedSection(t, snap, "kv"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newStores(t)
	before := versions(s)
	if _, ok, err := restoreSnapshot(Config{Dir: dir}, map[string]Durable{"kv": s.kv, "ts": s.ts, "db": s.rel}); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore = ok %t, %v; want ErrCorrupt", ok, err)
	}
	if after := versions(s); after != before || s.kv.Len() != 0 {
		t.Fatalf("a rejected snapshot moved store versions %v -> %v (%d kv keys)", before, after, s.kv.Len())
	}
}
