package backend

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
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
