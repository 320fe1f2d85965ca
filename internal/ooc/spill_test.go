package ooc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
)

// spillStress spills every lemma of its first window at tinyBudget: each
// lemma is hinted 400 IDs later, several windows on.
var spillStress = gen.StressOpts{Lemmas: 3000, Width: 64, Gap: 400}

// recordStarts walks a sealed segment's records and returns the offset of
// each one, then the segment's length.
func recordStarts(t *testing.T, seg []byte) []int {
	t.Helper()
	if !strings.HasPrefix(string(seg), spillMagic) {
		t.Fatalf("segment starts %q, want the magic", seg[:min(len(seg), len(spillMagic))])
	}
	var starts []int
	off := len(spillMagic)
	for off < len(seg) {
		starts = append(starts, off)
		p := off
		_, n := binary.Uvarint(seg[p:]) // id
		p += n
		nlits, n := binary.Uvarint(seg[p:])
		p += n
		for i := uint64(0); i < nlits; i++ {
			_, n = binary.Uvarint(seg[p:])
			p += n
		}
		off = p + 4 // crc32
	}
	if off != len(seg) {
		t.Fatalf("records end at %d, segment at %d", off, len(seg))
	}
	return append(starts, off)
}

// TestSpillCorruptionEveryByte damages the first sealed segment between
// its write and its read-back, one fault per run: every byte flipped, the
// magic included, and the segment truncated at every record boundary and
// once mid-record. Every run must fail closed as a spill-index
// corruption: never a pass, and never a hint failure that would blame the
// proof for the disk.
func TestSpillCorruptionEveryByte(t *testing.T) {
	f, proof := stressProof(t, spillStress)
	defer func() { afterSpillWindow = nil }()
	const first = "seg-000000.seg"
	var clean []byte
	afterSpillWindow = func(segPath string) {
		if strings.HasSuffix(segPath, first) {
			b, err := os.ReadFile(segPath)
			if err != nil {
				t.Fatal(err)
			}
			clean = b
		}
	}
	res, err := CheckLRAT(f, drat.BytesSource(proof), testOpts(t, tinyBudget))
	if err != nil {
		t.Fatal(err)
	}
	if res.OOCWindows < 3 || clean == nil {
		t.Fatalf("%d windows, first segment %d bytes: the scenario needs a spill and at least 3 windows",
			res.OOCWindows, len(clean))
	}
	starts := recordStarts(t, clean)

	run := func(name string, damage func([]byte) []byte) {
		fired := false
		afterSpillWindow = func(segPath string) {
			if !strings.HasSuffix(segPath, first) {
				return
			}
			if err := os.WriteFile(segPath, damage(append([]byte(nil), clean...)), 0o644); err != nil {
				t.Fatal(err)
			}
			fired = true
		}
		_, err := CheckLRAT(f, drat.BytesSource(proof), testOpts(t, tinyBudget))
		if !fired {
			t.Fatalf("%s: the first segment was never sealed", name)
		}
		var ce *checker.CheckError
		if !errors.As(err, &ce) || ce.Kind != checker.FailTrace || !strings.Contains(ce.Error(), "spill index corrupt") {
			t.Fatalf("%s: got %v, want a malformed-trace rejection naming the corrupt spill index", name, err)
		}
	}
	for i := range clean {
		run(fmt.Sprintf("flip byte %d", i), func(b []byte) []byte { b[i] ^= 0xff; return b })
	}
	cuts := append([]int{0}, starts[:len(starts)-1]...)
	cuts = append(cuts, starts[1]+2)
	for _, n := range cuts {
		run(fmt.Sprintf("truncate at %d", n), func(b []byte) []byte { return b[:n] })
	}
}

// FuzzSpillRecord feeds the record decoder arbitrary segment bytes, an
// offset and an expected ID. It must never panic, so never read outside
// the segment, and a clause it returns must encode, as put writes it, to
// exactly the bytes at that offset, checksum included.
func FuzzSpillRecord(f *testing.F) {
	seg := appendRecord([]byte(spillMagic), 7, []int32{2, 5, 131})
	second := int64(len(seg))
	seg = appendRecord(seg, 300, nil)
	f.Add(seg, int64(len(spillMagic)), int32(7))
	f.Add(seg, second, int32(300))
	f.Add(seg, second, int32(7))
	f.Add(seg[:len(seg)-2], second, int32(300))
	f.Add(appendRecord([]byte(spillMagic), -1, []int32{-1, 0}), int64(len(spillMagic)), int32(-1))
	// Clause 7 with its ID padded to two bytes and a checksum over those
	// bytes: only the canonical-encoding check tells it from put's record.
	padded := []byte{0x87, 0x00, 0x00}
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))
	f.Add(append([]byte(spillMagic), padded...), int64(len(spillMagic)), int32(7))
	f.Add([]byte(spillMagic+"\x07\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), int64(len(spillMagic)), int32(7))
	f.Fuzz(func(t *testing.T, seg []byte, off int64, id int32) {
		seg = seg[:len(seg):len(seg)]
		lits, err := decodeRecord(seg, off, id, nil)
		if err != nil {
			var ec *errSpillCorrupt
			if !errors.As(err, &ec) || len(lits) != 0 {
				t.Fatalf("got %v and %v, want a spill corruption and no literals", lits, err)
			}
			return
		}
		rec := appendRecord(nil, id, lits)
		if end := off + int64(len(rec)); end > int64(len(seg)) || !bytes.Equal(seg[off:end], rec) {
			t.Fatalf("decoded clause %d %v from %x at %d, which encodes as %x", id, lits, seg, off, rec)
		}
	})
}
