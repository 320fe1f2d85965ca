package ooc

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"

	"satcheck/internal/drat"
	"satcheck/internal/mmapio"
)

// PathSource is implemented by proof sources that are backed by a file on
// disk. The out-of-core checker mmaps such sources directly instead of
// streaming them through a copy.
type PathSource interface {
	ProofPath() string
}

var gzipMagic = []byte{0x1f, 0x8b}

// openProof materializes a proof source as a flat read-only byte view the
// window passes can re-scan at arbitrary offsets:
//
//   - file-backed sources are mmap'd (zero-copy, pages shared with the OS
//     cache; heap fallback where mmap is unavailable),
//   - in-memory sources are used as-is,
//   - anything else (server spools, pipes) streams into an unlinked temp
//     file which is then mmap'd.
//
// Gzip input is recognized by magic, decompressed once into a temp file,
// and the decompressed file mmap'd — the multi-pass scans need random
// access that a gzip stream cannot provide.
func openProof(src drat.Source, tempDir string) ([]byte, func(), error) {
	path := ""
	switch s := src.(type) {
	case drat.FileSource:
		path = string(s)
	case PathSource:
		path = s.ProofPath()
	case drat.BytesSource:
		if len(s) >= 2 && bytes.Equal([]byte(s[:2]), gzipMagic) {
			return gunzipToMapped(bytes.NewReader(s), tempDir)
		}
		return []byte(s), func() {}, nil
	}
	if path != "" {
		d, err := mmapio.Open(path)
		if err != nil {
			return nil, nil, err
		}
		b := d.Bytes()
		if len(b) >= 2 && bytes.Equal(b[:2], gzipMagic) {
			defer d.Close()
			return gunzipToMapped(bytes.NewReader(b), tempDir)
		}
		return b, func() { d.Close() }, nil
	}
	rc, err := src.Open()
	if err != nil {
		return nil, nil, err
	}
	defer rc.Close()
	br := newSniffReader(rc)
	head, err := br.peek2()
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if len(head) >= 2 && bytes.Equal(head, gzipMagic) {
		return gunzipToMapped(br, tempDir)
	}
	return spoolToMapped(br, tempDir)
}

// sniffReader lets openProof peek at the first two bytes of an arbitrary
// stream without a bufio allocation sized for the whole transfer.
type sniffReader struct {
	r    io.Reader
	head []byte
}

func newSniffReader(r io.Reader) *sniffReader { return &sniffReader{r: r} }

func (s *sniffReader) peek2() ([]byte, error) {
	buf := make([]byte, 2)
	n, err := io.ReadFull(s.r, buf)
	s.head = buf[:n]
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return s.head, err
}

func (s *sniffReader) Read(p []byte) (int, error) {
	if len(s.head) > 0 {
		n := copy(p, s.head)
		s.head = s.head[n:]
		return n, nil
	}
	return s.r.Read(p)
}

func gunzipToMapped(r io.Reader, tempDir string) ([]byte, func(), error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	defer zr.Close()
	return spoolToMapped(zr, tempDir)
}

// spoolToMapped copies r into a temp file, unlinks it (the mapping keeps
// the inode alive), and returns the mmap'd view.
func spoolToMapped(r io.Reader, tempDir string) ([]byte, func(), error) {
	f, err := os.CreateTemp(tempDir, "ooc-proof-*")
	if err != nil {
		return nil, nil, err
	}
	name := f.Name()
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		os.Remove(name)
		return nil, nil, err
	}
	d, err := mmapio.FromFile(f)
	f.Close()
	os.Remove(name)
	if err != nil {
		return nil, nil, err
	}
	return d.Bytes(), func() { d.Close() }, nil
}
