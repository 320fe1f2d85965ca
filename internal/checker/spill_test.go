package checker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"testing"

	"satcheck/internal/trace"
)

const spillOrig = 300 // originals of chainTrace: sources past 127 take two varint bytes

// chainTrace returns a trace over spillOrig original clauses of numL
// learned clauses, each citing the one before it and two originals, whose
// final conflict is the last: the backward sweep marks all numL. Only its
// structure is valid; the mark phase never resolves.
func chainTrace(numL int) *trace.MemoryTrace {
	mt := &trace.MemoryTrace{}
	for i := range numL {
		srcs := []int{(7 * i) % spillOrig, 200 + i%100}
		if i > 0 {
			srcs = append(srcs, spillOrig+i-1)
		}
		mt.Learned(spillOrig+i, srcs)
	}
	mt.FinalConflict(spillOrig + numL - 1)
	return mt
}

// spilled runs the hybrid checker's first phase over chainTrace(numL).
func spilled(t *testing.T, numL int) (*hybridChecker, *sourcesSpill) {
	t.Helper()
	h := &hybridChecker{nOrig: spillOrig, res: &Result{}}
	spill, err := h.spillSources(chainTrace(numL), Options{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spill.close)
	return h, spill
}

// mappedSpill writes data and index to files and maps them as
// spillSources does.
func mappedSpill(t *testing.T, data, index []byte) *sourcesSpill {
	t.Helper()
	var files [2]*os.File
	for i, b := range [][]byte{data, index} {
		f, err := os.CreateTemp(t.TempDir(), "spill-*")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	s, err := mapSpill(files[0], files[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// TestSpillFailsClosed runs the backward sweep over mapped spills whose
// bytes fall short in every way the reader checks: data truncated at each
// record boundary and once mid-record, an index shorter than the learned
// count, an offset past the data, and an overlong count varint. Each must
// end in a malformed-trace rejection, never a panic or a completed sweep.
func TestSpillFailsClosed(t *testing.T) {
	const numL = 40
	h, spill := spilled(t, numL)
	data, index := slices.Clone(spill.data.Bytes()), slices.Clone(spill.index.Bytes())
	if err := h.markPhase(mappedSpill(t, data, index)); err != nil {
		t.Fatalf("intact spill: %v", err)
	}
	last := binary.LittleEndian.Uint64(index[8*(numL-1):])

	cases := map[string][2][]byte{
		"cut mid-record":         {data[:len(data)-1], index},
		"index short one clause": {data, index[:len(index)-8]},
		"offset past the data": {data, binary.LittleEndian.AppendUint64(
			slices.Clone(index[:len(index)-8]), uint64(len(data)+8))},
		"overlong count varint": {append(slices.Clone(data[:last]),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), index},
	}
	for k := range numL {
		off := binary.LittleEndian.Uint64(index[8*k:])
		cases[fmt.Sprintf("cut before record %d", k)] = [2][]byte{data[:off], index}
	}
	for name, c := range cases {
		err := h.markPhase(mappedSpill(t, c[0], c[1]))
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Kind != FailTrace {
			t.Errorf("%s: markPhase = %v, want a malformed-trace rejection", name, err)
		}
	}
}

// TestMarkPhaseAllocsFollowCheck pins that the backward sweep's
// allocations follow the check, not the marked clauses: decoding a record
// from the mapping needs no reader, buffer or slice of its own.
func TestMarkPhaseAllocsFollowCheck(t *testing.T) {
	allocs := func(numL int) (float64, int) {
		h, spill := spilled(t, numL)
		a := testing.AllocsPerRun(5, func() {
			if err := h.markPhase(spill); err != nil {
				t.Fatal(err)
			}
		})
		marked := 0
		for _, w := range h.marked {
			marked += bits.OnesCount64(w)
		}
		return a, marked
	}
	small, nSmall := allocs(100)
	large, nLarge := allocs(2000)
	if nLarge < 10*nSmall {
		t.Fatalf("marked %d and %d clauses, want a 10x spread", nSmall, nLarge)
	}
	if large > small+2 {
		t.Errorf("markPhase allocates %.0f times for %d marked clauses and %.0f for %d; want at most 2 more",
			small, nSmall, large, nLarge)
	}
}
