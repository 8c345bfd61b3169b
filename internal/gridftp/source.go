package gridftp

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dstune/internal/dataset"
)

// fileSource resolves a dataset manifest against a directory of real
// files (ClientConfig.SourceDir): manifest entry i's payload is read
// from the file dataset.Name(i) under dir. Built once in NewClient,
// where every entry is validated — each file must exist as a regular
// file of at least the manifest size — so the pump never discovers a
// bad source mid-epoch.
type fileSource struct {
	dir string
}

// newFileSource validates dir against d and builds the source.
func newFileSource(dir string, d dataset.Dataset) (*fileSource, error) {
	fs := &fileSource{dir: dir}
	for i, size := range d.Sizes {
		path := fs.path(i)
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("gridftp: source: %w", err)
		}
		if !st.Mode().IsRegular() {
			return nil, fmt.Errorf("gridftp: source file %s is not a regular file", path)
		}
		if st.Size() < size {
			return nil, fmt.Errorf("gridftp: source file %s holds %d bytes; the manifest needs %d", path, st.Size(), size)
		}
	}
	return fs, nil
}

// path returns the path of manifest entry idx's file.
func (fs *fileSource) path(idx int) string { return filepath.Join(fs.dir, dataset.Name(idx)) }

// fileBufPool recycles the userspace pump's read buffers, so stripes
// churning across epochs do not allocate fileChunk each.
var fileBufPool = sync.Pool{New: func() any {
	b := make([]byte, fileChunk)
	return &b
}}

// stripeSource is one data stripe's view of the file source: a cached
// open handle for the file the stripe is currently leasing (a file's
// leases usually arrive back to back, so one open amortizes across
// them) and, for the userspace path, a pooled read buffer. Owned by a
// single pump goroutine; not safe for concurrent use.
type stripeSource struct {
	fs    *fileSource
	idx   int
	f     *os.File
	bufp  *[]byte
	calls int64 // open/pread/seek/sendfile syscalls issued
}

// newStripeSource returns a stripe view of fs, or nil for a nil
// source (synthesized-zeros mode).
func newStripeSource(fs *fileSource) *stripeSource {
	if fs == nil {
		return nil
	}
	return &stripeSource{fs: fs, idx: -1}
}

// file returns an open handle for file idx, reusing the cached one.
func (ss *stripeSource) file(idx int) (*os.File, error) {
	if ss.f != nil && ss.idx == idx {
		return ss.f, nil
	}
	ss.closeFile()
	f, err := os.Open(ss.fs.path(idx))
	if err != nil {
		return nil, err
	}
	ss.calls++
	ss.f, ss.idx = f, idx
	return f, nil
}

// closeFile drops the cached handle.
func (ss *stripeSource) closeFile() {
	if ss.f != nil {
		ss.f.Close()
		ss.f, ss.idx = nil, -1
	}
}

// buf returns the stripe's pooled fileChunk-sized read buffer.
func (ss *stripeSource) buf() []byte {
	if ss.bufp == nil {
		ss.bufp = fileBufPool.Get().(*[]byte)
	}
	return *ss.bufp
}

// release returns the stripe's pooled resources at pump exit. Safe on
// nil.
func (ss *stripeSource) release() {
	if ss == nil {
		return
	}
	ss.closeFile()
	if ss.bufp != nil {
		fileBufPool.Put(ss.bufp)
		ss.bufp = nil
	}
}
