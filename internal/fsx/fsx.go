// Package fsx holds small filesystem durability helpers shared by the
// durable writers in the stack (tuner.FileCheckpoint, history.Store,
// the dstuned job journal).
package fsx

import (
	"errors"
	"os"
	"path/filepath"
)

// WriteAtomic durably replaces the file at path with data: it writes a
// temporary file in the same directory, fsyncs it, renames it over the
// target, and fsyncs the directory — so path always holds either the
// previous or the new complete contents, even across a crash
// mid-write.
func WriteAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	var cherr error
	if werr == nil {
		cherr = tmp.Chmod(perm)
	}
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, cherr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// WriteSync writes data to f at its current position (the end, for a
// file opened O_APPEND) and fsyncs it: an append to a file that
// WriteAtomic created, whose records each check themselves, so a crash
// mid-append can tear only the last, which its reader drops. A newly
// created f is durable under its name only once its directory is
// synced too — by SyncDir, or by the WriteAtomic that created it.
func WriteSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// SyncDir fsyncs the directory at dir. An atomic create-rename write
// is only durable once the directory entry itself is synced: fsyncing
// the file alone persists its contents, but a crash can still lose the
// rename (or a newly created name) until the containing directory's
// metadata reaches disk. Callers invoke SyncDir after the rename (or
// after creating a file that must survive a crash).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
