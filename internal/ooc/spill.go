package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"satcheck/internal/mmapio"
)

// The spill index is the disk half of window shifting: a learned clause
// whose last reference lies in a later window is written out when its
// window retires and re-read as an import when that later window runs.
// Layout follows internal/store's conventions — a schema-versioned
// directory, segments spooled under a temporary name and renamed into
// place only when complete, and every record checksummed so a torn or
// tampered segment fails closed instead of feeding the kernel bad clauses.
//
//	<tmp>/ooc-spill-*/v1/seg-000007.seg
//
// Segment format: "OOCS1\n" magic, then records of
//
//	uvarint(id) uvarint(nlits) uvarint(lit)... crc32(le, payload)
//
// A sealed segment is mapped read-only (internal/mmapio) once its
// length and magic check out, and every record is decoded from the mapped
// bytes: an import costs no system call and no buffer. The spill
// directory is private to the check, so nothing truncates a segment under
// its mapping.
//
// A spill ref packs (segment, offset) into an int64: segment<<refSegShift | offset.
const (
	spillMagic     = "OOCS1\n"
	spillSchemaDir = "v1"
	refSegShift    = 40
	refOffMask     = (1 << refSegShift) - 1
	// maxSpillLits bounds a record's clause length during decode; anything
	// larger is corruption, not a clause this checker could have written.
	maxSpillLits = 1 << 28
)

// errSpillCorrupt marks integrity failures in the spill index. The checker
// converts it to a fail-closed rejection (never a pass).
type errSpillCorrupt struct{ detail string }

func (e *errSpillCorrupt) Error() string { return "ooc: spill index corrupt: " + e.detail }

func spillCorrupt(format string, args ...any) error {
	return &errSpillCorrupt{detail: fmt.Sprintf(format, args...)}
}

// spillIndex owns the spill directory for one check run.
type spillIndex struct {
	root   string
	dir    string
	segs   []*mmapio.Data
	cur    *os.File // current spool, nil between windows
	curW   *bufio.Writer
	curOff int64

	clauses int64
	bytes   int64
}

// afterSpillWindow is a test hook run after each segment is sealed and
// before it is mapped, used to fault-inject corruption between the write
// and the read-back.
var afterSpillWindow func(segPath string)

func newSpillIndex(tempDir string) (*spillIndex, error) {
	root, err := os.MkdirTemp(tempDir, "ooc-spill-*")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, spillSchemaDir)
	if err := os.Mkdir(dir, 0o755); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return &spillIndex{root: root, dir: dir}, nil
}

// Close unmaps the segments and deletes the spill directory.
func (sp *spillIndex) Close() error {
	if sp == nil {
		return nil
	}
	for _, d := range sp.segs {
		d.Close()
	}
	sp.segs = nil
	if sp.cur != nil {
		sp.cur.Close()
		sp.cur = nil
	}
	return os.RemoveAll(sp.root)
}

func (sp *spillIndex) segPath(idx int, spool bool) string {
	ext := ".seg"
	if spool {
		ext = ".spool"
	}
	return filepath.Join(sp.dir, fmt.Sprintf("seg-%06d%s", idx, ext))
}

// appendRecord appends the spill record of clause id, whose literals are
// kernel-encoded, to buf.
func appendRecord(buf []byte, id int32, lits []int32) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(uint32(id)))
	buf = binary.AppendUvarint(buf, uint64(uint32(len(lits))))
	for _, l := range lits {
		buf = binary.AppendUvarint(buf, uint64(uint32(l)))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// put appends one clause to the current window's segment, opening the
// segment lazily, and returns its spill ref. lits are kernel-encoded.
func (sp *spillIndex) put(id int32, lits []int32) (int64, error) {
	if sp.cur == nil {
		f, err := os.Create(sp.segPath(len(sp.segs), true))
		if err != nil {
			return 0, err
		}
		sp.cur = f
		if sp.curW == nil {
			sp.curW = bufio.NewWriterSize(f, 1<<16)
		} else {
			sp.curW.Reset(f)
		}
		sp.curOff = 0
		if _, err := sp.curW.WriteString(spillMagic); err != nil {
			return 0, err
		}
		sp.curOff = int64(len(spillMagic))
	}
	rec := appendRecord(sp.curW.AvailableBuffer(), id, lits)
	if _, err := sp.curW.Write(rec); err != nil {
		return 0, err
	}
	ref := int64(len(sp.segs))<<refSegShift | sp.curOff
	sp.curOff += int64(len(rec))
	sp.clauses++
	sp.bytes += int64(len(rec))
	return ref, nil
}

// seal finishes the current window's segment: flush, rename the spool into
// place, and map it read-only for later windows, checking that it holds
// exactly the bytes written behind the magic. A window that spilled
// nothing leaves no segment behind and is a no-op.
func (sp *spillIndex) seal() error {
	if sp.cur == nil {
		return nil
	}
	idx := len(sp.segs)
	if err := sp.curW.Flush(); err != nil {
		return err
	}
	if err := sp.cur.Close(); err != nil {
		return err
	}
	sp.cur = nil
	final := sp.segPath(idx, false)
	if err := os.Rename(sp.segPath(idx, true), final); err != nil {
		return err
	}
	if afterSpillWindow != nil {
		afterSpillWindow(final)
	}
	d, err := mmapio.Open(final)
	if err != nil {
		return err
	}
	sp.segs = append(sp.segs, d)
	b := d.Bytes()
	if int64(len(b)) != sp.curOff {
		return spillCorrupt("segment %d holds %d bytes, %d were written", idx, len(b), sp.curOff)
	}
	if string(b[:len(spillMagic)]) != spillMagic {
		return spillCorrupt("bad segment magic")
	}
	return nil
}

// get appends the literals of the clause spilled at ref to dst.
func (sp *spillIndex) get(ref int64, wantID int32, dst []int32) ([]int32, error) {
	seg := ref >> refSegShift
	if seg < 0 || seg >= int64(len(sp.segs)) {
		return dst, spillCorrupt("ref to unknown segment %d", seg)
	}
	return decodeRecord(sp.segs[seg].Bytes(), ref&refOffMask, wantID, dst)
}

// decodeRecord appends the literals of the record at off in seg to dst,
// verifying that the record lies inside seg, is clause wantID's, is
// encoded as appendRecord encodes it, and matches its checksum. Any
// mismatch is corruption and fails closed, with dst returned as it came.
func decodeRecord(seg []byte, off int64, wantID int32, dst []int32) ([]int32, error) {
	if off < int64(len(spillMagic)) || off >= int64(len(seg)) {
		return dst, spillCorrupt("ref offset %d out of segment bounds", off)
	}
	rec := seg[off:]
	id, p := uvarint(rec)
	if p <= 0 {
		return dst, spillCorrupt("truncated record header")
	}
	if id > math.MaxUint32 || int32(uint32(id)) != wantID {
		return dst, spillCorrupt("record id %d, expected %d", id, wantID)
	}
	nlits, n := uvarint(rec[p:])
	if n <= 0 {
		return dst, spillCorrupt("truncated record length")
	}
	if nlits > maxSpillLits {
		return dst, spillCorrupt("implausible clause length %d", nlits)
	}
	p += n
	base := len(dst)
	for i := uint64(0); i < nlits; i++ {
		v, n := uvarint(rec[p:])
		if n <= 0 {
			return dst[:base], spillCorrupt("truncated record literals")
		}
		if v > math.MaxUint32 {
			return dst[:base], spillCorrupt("literal %d out of range", v)
		}
		dst = append(dst, int32(uint32(v)))
		p += n
	}
	if len(rec)-p < 4 {
		return dst[:base], spillCorrupt("truncated record checksum")
	}
	if binary.LittleEndian.Uint32(rec[p:]) != crc32.ChecksumIEEE(rec[:p]) {
		return dst[:base], spillCorrupt("checksum mismatch for clause %d", wantID)
	}
	return dst, nil
}

// uvarint decodes the uvarint at the start of b, as binary.Uvarint does,
// but reports n <= 0 for one padded with zero high bytes: appendRecord
// never writes those.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}
