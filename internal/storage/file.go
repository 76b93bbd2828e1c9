package storage

import (
	"fmt"
	"sync"
)

// File is a byte-addressable view of a device routed through the shared
// buffer pool. All reads and writes above the device layer use File so that
// every experiment's I/O is counted and cached uniformly.
type File struct {
	pool  *Pool
	dev   Device
	id    uint32
	stats *Stats // this file's share of the pool counters

	mu   sync.Mutex
	size int64 // logical size in bytes (may trail the device page tail)
}

// NewFile attaches dev to pool and returns a File over it. The logical size
// starts at the device size.
func NewFile(pool *Pool, dev Device) *File {
	id := pool.Register(dev)
	return &File{pool: pool, dev: dev, id: id, stats: pool.FileStats(id), size: dev.Size()}
}

// Pool returns the buffer pool the file is attached to.
func (f *File) Pool() *Pool { return f.pool }

// IOStats returns the I/O counters attributed to this file alone. Query
// plans snapshot these around the filter and refine phases; because the
// counters are per-file and atomic, the attribution stays exact with any
// number of concurrent readers.
func (f *File) IOStats() *Stats { return f.stats }

// Size returns the logical file size in bytes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// PinPage pins the page containing byte offset off and returns the frame
// plus the page's bytes from off to the page end. The caller must Release
// the frame; until then the bytes are stable against concurrent writes
// (copy-on-write) and the page cannot be evicted. This is the zero-copy path
// ChainBitReader decodes from.
func (f *File) PinPage(off int64) (*Frame, []byte, error) {
	if off < 0 {
		return nil, nil, fmt.Errorf("storage: negative pin offset %d", off)
	}
	ps := int64(f.pool.PageSize())
	fr, err := f.pool.Get(f.id, off/ps)
	if err != nil {
		return nil, nil, err
	}
	return fr, fr.Data()[off%ps:], nil
}

// ReadAt reads len(p) bytes at offset off through the buffer pool. Reads
// beyond the logical size return zeros (the caller is expected to stay
// within structures it wrote).
func (f *File) ReadAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("storage: negative read offset %d", off)
	}
	ps := int64(f.pool.PageSize())
	for len(p) > 0 {
		page := off / ps
		in := off % ps
		n, err := f.pool.readInto(f.id, page, int(in), p)
		if err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt writes p at offset off through the buffer pool, growing the
// logical size as needed. Whole pages go to the device as they are; a partial
// page is patched over its cached frame (see Pool.write).
func (f *File) WriteAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("storage: negative write offset %d", off)
	}
	end := off + int64(len(p))
	ps := int64(f.pool.PageSize())
	for len(p) > 0 {
		in := off % ps
		n := int(ps - in)
		if n > len(p) {
			n = len(p)
		}
		if err := f.pool.write(f.id, off/ps, int(in), p[:n]); err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	f.mu.Lock()
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	return nil
}

// Append writes p at the logical end of the file and returns the offset the
// data was written at.
func (f *File) Append(p []byte) (int64, error) {
	f.mu.Lock()
	off := f.size
	f.mu.Unlock()
	if err := f.WriteAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

// Truncate resets the file to the given size, invalidating cached pages.
func (f *File) Truncate(size int64) error {
	ps := int64(f.pool.PageSize())
	devSize := (size + ps - 1) / ps * ps
	if err := f.dev.Truncate(devSize); err != nil {
		return err
	}
	f.pool.InvalidateFile(f.id)
	f.mu.Lock()
	f.size = size
	f.mu.Unlock()
	return nil
}

// Sync flushes the underlying device.
func (f *File) Sync() error { return f.dev.Sync() }

// Close detaches from the pool and closes the device.
func (f *File) Close() error {
	f.pool.Unregister(f.id)
	return f.dev.Close()
}
