package backend

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot layout. One file, written atomically (temp + fsync + rename):
//
//	magic "PPSNAP2\n" | section count u32
//	per section: name (u32 length + bytes) | length u64 | crc u32 | bytes
//
// One section per attached store, in name order. The bytes are whatever the
// store's Snapshot wrote — its state and version watermarks as one
// consistent cut — streamed straight to the file; length and CRC-32/IEEE
// (over name and bytes) are patched into the section header afterwards.
// Recovery verifies every section before it restores any.
const (
	snapMagic = "PPSNAP2\n"
	snapFile  = "snapshot.db"
	snapTemp  = "snapshot.tmp"
)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeSnapshot persists every store's section atomically into dir and
// returns the file size.
func writeSnapshot(dir string, stores map[string]Durable) (int64, error) {
	tmp := filepath.Join(dir, snapTemp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	size, err := writeSections(f, stores)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, snapFile))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return size, nil
}

// writeSections streams the header and each store's section to f.
func writeSections(f *os.File, stores map[string]Durable) (size int64, err error) {
	names := sortedKeys(stores)
	crc := crc32.NewIEEE()
	out := &countWriter{w: io.MultiWriter(f, crc)}
	bw := bufio.NewWriterSize(out, 1<<16) // write errors stick until Flush
	bw.WriteString(snapMagic)
	bw.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(names))))
	for _, name := range names {
		// Section header; length and CRC stay zero until the section has
		// been streamed.
		bw.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(name))))
		bw.WriteString(name)
		bw.Write(make([]byte, 12))
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		start := out.n
		crc.Reset()
		io.WriteString(crc, name)
		if err := stores[name].Snapshot(bw); err != nil {
			return 0, fmt.Errorf("store %q: %w", name, err)
		}
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		patch := binary.LittleEndian.AppendUint64(nil, uint64(out.n-start))
		patch = binary.LittleEndian.AppendUint32(patch, crc.Sum32())
		if _, err := f.WriteAt(patch, start-int64(len(patch))); err != nil {
			return 0, err
		}
	}
	return out.n, bw.Flush()
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// section locates one verified store section inside the snapshot file.
type section struct {
	name   string
	off, n int64
}

// restoreSnapshot verifies the snapshot file in cfg.Dir end to end, then
// restores each section into the store attached under its name; ok is false
// when no snapshot exists. Nothing is restored unless everything verified.
func restoreSnapshot(cfg Config, stores map[string]Durable) (size int64, ok bool, err error) {
	f, err := os.Open(filepath.Join(cfg.Dir, snapFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	sections, size, err := verifySnapshot(f)
	if err != nil {
		return 0, false, err
	}
	for _, sec := range sections {
		s, ok := stores[sec.name]
		if !ok {
			cfg.logf("backend: snapshot store %q not attached; dropped", sec.name)
			continue
		}
		if err := s.Restore(io.NewSectionReader(f, sec.off, sec.n)); err != nil {
			return 0, false, fmt.Errorf("store %q: %w", sec.name, err)
		}
	}
	return size, true, nil
}

// verifySnapshot walks the file once, checking the magic, every section's
// length and CRC, and that the last section ends the file. Lengths come
// from the file itself, so sections are checksummed as a stream: a damaged
// length costs an error, not an allocation.
func verifySnapshot(f *os.File) (sections []section, size int64, err error) {
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(snapMagic)+4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	if magic := string(hdr[:len(snapMagic)]); magic != snapMagic {
		if strings.HasPrefix(magic, snapMagic[:6]) {
			return nil, 0, fmt.Errorf("%w: snapshot magic %q, this build reads %q", ErrFormat, magic, snapMagic)
		}
		return nil, 0, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	size = int64(len(hdr))
	crc := crc32.NewIEEE()
	for left := binary.LittleEndian.Uint32(hdr[len(snapMagic):]); left > 0; left-- {
		var u32 [4]byte
		var tail [12]byte
		var name strings.Builder
		crc.Reset()
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot section header", ErrCorrupt)
		}
		nameLen := int64(binary.LittleEndian.Uint32(u32[:]))
		if n, _ := io.CopyN(io.MultiWriter(&name, crc), br, nameLen); n != nameLen {
			return nil, 0, fmt.Errorf("%w: snapshot section name", ErrCorrupt)
		}
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot section %q header", ErrCorrupt, name.String())
		}
		sec := section{name: name.String(), off: size + 4 + nameLen + 12,
			n: int64(binary.LittleEndian.Uint64(tail[:8]))}
		if n, _ := io.CopyN(crc, br, sec.n); n != sec.n || crc.Sum32() != binary.LittleEndian.Uint32(tail[8:]) {
			return nil, 0, fmt.Errorf("%w: snapshot section %q", ErrCorrupt, sec.name)
		}
		// The writer emits one section per store in name order; a repeated
		// or unordered name would restore a store twice.
		if k := len(sections); k > 0 && sec.name <= sections[k-1].name {
			return nil, 0, fmt.Errorf("%w: snapshot section %q after %q", ErrCorrupt, sec.name, sections[k-1].name)
		}
		sections = append(sections, sec)
		size = sec.off + sec.n
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("%w: snapshot has trailing bytes", ErrCorrupt)
	}
	return sections, size, nil
}
