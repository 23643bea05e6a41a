package backend

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// fsDir is the data directory: every file the backend reads or writes is
// named relative to it, and no other code in the package reaches the file
// system (CI greps for it). osDir is the one production implementation;
// tests wrap it to count calls and fail chosen ones.
type fsDir interface {
	OpenFile(name string, flag int, perm fs.FileMode) (fsFile, error)
	ReadDir() ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Rename(from, to string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (fs.FileInfo, error)
	// Sync fsyncs the directory itself, making created, renamed and removed
	// entries durable.
	Sync() error
}

// fsFile is an open file of an fsDir.
type fsFile interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	Sync() error
	Close() error
}

// osDir is the fsDir over a directory path.
type osDir string

func (d osDir) path(name string) string { return filepath.Join(string(d), name) }

func (d osDir) OpenFile(name string, flag int, perm fs.FileMode) (fsFile, error) {
	f, err := os.OpenFile(d.path(name), flag, perm)
	if err != nil {
		return nil, err // not a non-nil fsFile holding a nil *os.File
	}
	return f, nil
}

func (d osDir) ReadDir() ([]fs.DirEntry, error)        { return os.ReadDir(string(d)) }
func (d osDir) ReadFile(name string) ([]byte, error)   { return os.ReadFile(d.path(name)) }
func (d osDir) Rename(from, to string) error           { return os.Rename(d.path(from), d.path(to)) }
func (d osDir) Remove(name string) error               { return os.Remove(d.path(name)) }
func (d osDir) Truncate(name string, size int64) error { return os.Truncate(d.path(name), size) }
func (d osDir) Stat(name string) (fs.FileInfo, error)  { return os.Stat(d.path(name)) }

func (d osDir) Sync() error {
	f, err := os.Open(string(d))
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
