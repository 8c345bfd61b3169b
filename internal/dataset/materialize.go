package dataset

import (
	"fmt"
	"os"
	"path/filepath"
)

// Materialize creates d's files under dir, file i as Name(i), as real,
// sparsely allocated files of the manifest sizes, so a file-backed
// transfer source (gridftp.ClientConfig.SourceDir) has actual disk
// objects to sendfile from. Existing files of the right size are left
// untouched; wrong-sized ones are truncated to the manifest size.
// Sparse allocation (create + truncate, no payload writes) keeps even
// multi-GiB benchmark datasets instant and storage-free — reads
// return zeros, which is exactly the paper's /dev/zero payload.
func Materialize(dir string, d Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, size := range d.Sizes {
		path := filepath.Join(dir, Name(i))
		if st, err := os.Stat(path); err == nil && st.Size() == size && st.Mode().IsRegular() {
			continue
		}
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		err = fh.Truncate(size)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("dataset: materialize %s: %w", path, err)
		}
	}
	return nil
}
