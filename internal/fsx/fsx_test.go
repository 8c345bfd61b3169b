package fsx

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAtomicReplaces: WriteAtomic replaces an existing file's
// contents whole and leaves it with the permissions asked for, not the
// old file's and not the temporary file's.
func TestWriteAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old contents, longer than the new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte("new"), 0o640); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("file holds %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o640 {
		t.Fatalf("file has mode %v, want %v", perm, os.FileMode(0o640))
	}
}

// TestWriteAtomicCleansUpFailedRename: when the rename fails — here
// the target is a non-empty directory — WriteAtomic returns the error
// and leaves no dot-temp file behind.
func TestWriteAtomicCleansUpFailedRename(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "f")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "inside"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(target, []byte("data"), 0o644); err == nil {
		t.Fatal("WriteAtomic renamed a file over a non-empty directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("the failed write left %s behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}
}

// TestWriteSyncAppends: on a file opened O_APPEND, WriteSync lands at
// the end of the file wherever its offset was moved.
func TestWriteSyncAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if err := WriteSync(f, []byte("def")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("file holds %q, want %q", got, "abcdef")
	}
}
