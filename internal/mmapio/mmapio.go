// Package mmapio maps files read-only into the address space, so readers
// decode the same physical pages the page cache already holds instead of
// allocating per-read buffers: the out-of-core checker's window planner,
// parser and spill segments (internal/ooc), and the hybrid checker's
// source spill (internal/checker). On platforms (or filesystems) where
// mmap is unavailable the package falls back to a single ReadAll — same
// []byte contract, one allocation, so callers never branch on platform.
package mmapio

import (
	"io"
	"os"
)

// Data is a read-only view of a file's bytes, backed by an mmap'd region
// when the platform provides one and by a heap copy otherwise. Close
// releases the mapping; after Close the slice returned by Bytes must not
// be used.
type Data struct {
	b      []byte
	mapped bool
}

// Bytes returns the file contents. The slice is read-only: writing to a
// mapped region faults.
func (d *Data) Bytes() []byte { return d.b }

// Mapped reports whether the bytes are an mmap view (false: heap fallback).
func (d *Data) Mapped() bool { return d.mapped }

// Close releases the mapping (a no-op for the heap fallback).
func (d *Data) Close() error {
	if d == nil || !d.mapped {
		return nil
	}
	b := d.b
	d.b, d.mapped = nil, false
	return unmapFile(b)
}

// Open maps the named file read-only.
func Open(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return FromFile(f)
}

// FromFile maps an open file read-only. The mapping survives the caller
// closing f (the kernel keeps the pages alive until Close unmaps them);
// the heap fallback reads everything before returning.
func FromFile(f *os.File) (*Data, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Data{}, nil
	}
	if b, ok := mapFile(f, size); ok {
		return &Data{b: b, mapped: true}, nil
	}
	// ReadAll fallback: mmap unavailable (platform, filesystem, or an
	// oversized/odd file). Read from offset 0 regardless of the handle's
	// current position.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return &Data{b: b}, nil
}
