package checker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"

	"satcheck/internal/cnf"
	"satcheck/internal/mmapio"
	"satcheck/internal/trace"
)

// Hybrid validates an UNSAT trace with the strategy the paper's conclusion
// asks for: "a checker that has the advantage of both the depth-first and
// breadth-first approaches without suffering from their respective
// shortcomings ... a depth-first algorithm for the graph on disk".
//
// Phase 1 streams the trace once, spilling each learned clause's resolve
// sources to a temporary file with a fixed-width offset index, both mapped
// read-only once written. Phase 2 walks learned-clause IDs backward
// (sources always precede the clauses they derive) marking exactly the
// clauses reachable from the empty-clause derivation roots — the final
// conflicting clause and the level-0 antecedents — and counting uses among
// marked clauses, decoding each marked clause's record from the mapping.
// Phase 3 is a breadth-first build pass restricted to marked clauses with
// use-count eviction, each clause resolved in one resolve.Resolver call.
//
// In memory it keeps one *bit* per learned clause plus counters for the
// marked subset only, and it materializes literals only for marked clauses:
// depth-first's "build only what the proof needs" at breadth-first's bounded
// memory.
//
// Result.CoreClauses is a valid unsatisfiable core but can be a superset of
// the depth-first core: the mark phase must conservatively include every
// level-0 antecedent, while depth-first discovers which of them the final
// derivation actually touches.
func Hybrid(f *cnf.Formula, src trace.Source, opts Options) (*Result, error) {
	h := &hybridChecker{
		originals: normalizeOriginals(f),
		nOrig:     len(f.Clauses),
		numVars:   f.NumVars,
		res:       &Result{},
	}
	h.mem.limit = opts.MemLimitWords
	h.intr.fn = opts.Interrupt
	if err := h.mem.add(int64(f.NumLiterals())); err != nil {
		return nil, err
	}

	spill, err := h.spillSources(src, opts)
	if err != nil {
		return nil, err
	}
	defer spill.close()

	if err := h.markPhase(spill); err != nil {
		return nil, err
	}
	if err := h.buildPass(src); err != nil {
		return nil, err
	}
	h.res.PeakMemWords = h.mem.peak
	h.res.CoreClauses, h.res.CoreVars = h.core(f)
	return h.res, nil
}

type hybridChecker struct {
	originals []cnf.Clause
	nOrig     int
	numVars   int
	numL      int
	finalID   int
	level0    []trace.Level0Record

	marked   []uint64 // bitmap over learned clauses
	counts   []int32  // uses of each *marked* learned clause, by learned index
	live     map[int]*liveClause
	usedOrig []uint64 // bitmap over original clauses touched by the proof

	mem  memModel
	intr poller
	res  *Result
}

func (h *hybridChecker) isMarked(id int) bool {
	i := id - h.nOrig
	return h.marked[i/64]&(1<<uint(i%64)) != 0
}

// sourcesSpill is the on-disk representation of the learned-clause source
// lists: a data file of varint records (a count, then the sources) and a
// fixed 8-byte-per-clause offset index. Both files are unlinked on creation
// and mapped read-only once written, so the backward sweep decodes each
// record from the mapping with no read call, buffer or slice of its own.
type sourcesSpill struct {
	data, index *mmapio.Data
	srcs        []int // the sources decoded last, reused by every record
}

// mapSpill maps the written spill files read-only. The mappings outlive
// the files' handles; where mmap is unavailable, mmapio reads the files.
func mapSpill(data, index *os.File) (*sourcesSpill, error) {
	d, err := mmapio.FromFile(data)
	if err != nil {
		return nil, fmt.Errorf("checker: mapping hybrid spill: %w", err)
	}
	x, err := mmapio.FromFile(index)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("checker: mapping hybrid spill index: %w", err)
	}
	return &sourcesSpill{data: d, index: x}, nil
}

func (s *sourcesSpill) close() {
	if s == nil {
		return
	}
	s.data.Close()
	s.index.Close()
}

// sources decodes the resolve sources of learned clause number i (0-based)
// into s.srcs, valid until the next call. Bytes that fall short fail the
// read instead of the process: an index without clause i, an offset past
// the data, a truncated or overlong varint, or a count larger than the
// bytes left (every source takes at least one byte).
func (s *sourcesSpill) sources(i int) ([]int, error) {
	index, data := s.index.Bytes(), s.data.Bytes()
	if i >= len(index)/8 {
		return nil, fmt.Errorf("checker: hybrid spill index holds %d clauses, not clause %d", len(index)/8, i)
	}
	off := binary.LittleEndian.Uint64(index[8*i:])
	if off >= uint64(len(data)) {
		return nil, fmt.Errorf("checker: hybrid spill offset %d past the data's %d bytes", off, len(data))
	}
	n, rec, err := uvarint(data[off:])
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rec)) {
		return nil, fmt.Errorf("checker: hybrid spill record of %d sources in %d bytes", n, len(rec))
	}
	srcs := s.srcs[:0]
	for range n {
		var v uint64
		if v, rec, err = uvarint(rec); err != nil {
			return nil, err
		}
		srcs = append(srcs, int(v))
	}
	s.srcs = srcs
	return srcs, nil
}

// uvarint decodes the varint at the start of b and returns the bytes after
// it.
func uvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, nil, errors.New("checker: hybrid spill read: truncated varint")
	case k < 0:
		return 0, nil, errors.New("checker: hybrid spill read: overlong varint")
	}
	return v, b[k:], nil
}

// structuralScan is the checkers' shared phase-1 trace walk: one forward
// pass that validates trace structure (consecutive learned IDs, non-empty
// and strictly earlier sources, a single in-range final conflict), records
// the level-0 assignments, and hands every validated learned-clause record
// to sink — the hybrid checker's sink spills the source lists to disk, the
// parallel checker's appends them to an in-memory index.
func structuralScan(src trace.Source, nOrig int, intr *poller, mem *memModel,
	sink func(ev trace.Event) error,
) (numL, finalID int, level0 []trace.Level0Record, err error) {
	finalID = trace.NoClause
	sawConflict := false
	err = scanTrace(src, intr, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindLearned:
			if ev.ID != nOrig+numL {
				return failf(FailTrace, ev.ID, -1, "expected learned clause ID %d", nOrig+numL)
			}
			if len(ev.Sources) == 0 {
				return failf(FailTrace, ev.ID, -1, "learned clause has no resolve sources")
			}
			for _, s := range ev.Sources {
				if s < 0 || s >= ev.ID {
					return failf(FailBadSourceRef, s, -1, "learned clause %d references non-earlier clause", ev.ID)
				}
			}
			numL++
			return sink(ev)
		case trace.KindLevelZero:
			level0 = append(level0, trace.Level0Record{Var: ev.Var, Value: ev.Value, Ante: ev.Ante})
			return mem.add(3)
		case trace.KindFinalConflict:
			if sawConflict {
				return failf(FailTrace, ev.ID, -1, "multiple final-conflict records")
			}
			sawConflict = true
			finalID = ev.ID
		}
		return nil
	})
	if err != nil {
		return 0, 0, nil, err
	}
	if !sawConflict {
		return 0, 0, nil, failf(FailTrace, trace.NoClause, -1, "no final-conflict record; trace does not claim UNSAT")
	}
	if finalID < 0 || finalID >= nOrig+numL {
		return 0, 0, nil, failf(FailBadSourceRef, finalID, -1, "final conflicting clause out of range")
	}
	return numL, finalID, level0, nil
}

// spillSources is phase 1: one forward pass that validates trace structure,
// records the level-0 assignments and final conflict, and spills source
// lists to disk.
func (h *hybridChecker) spillSources(src trace.Source, opts Options) (*sourcesSpill, error) {
	data, err := os.CreateTemp(opts.TempDir, "satcheck-hybrid-data-*")
	if err != nil {
		return nil, fmt.Errorf("checker: creating spill file: %w", err)
	}
	defer data.Close()
	os.Remove(data.Name())
	index, err := os.CreateTemp(opts.TempDir, "satcheck-hybrid-index-*")
	if err != nil {
		return nil, fmt.Errorf("checker: creating spill index: %w", err)
	}
	defer index.Close()
	os.Remove(index.Name())

	dw := bufio.NewWriterSize(data, 1<<16)
	iw := bufio.NewWriterSize(index, 1<<16)
	offset := int64(0)
	// Buffers for the whole pass: one declared per record would escape
	// through the writers and cost an allocation per record.
	var off [8]byte
	var vbuf [binary.MaxVarintLen64]byte
	writeUvarint := func(w *bufio.Writer, v uint64) error {
		k := binary.PutUvarint(vbuf[:], v)
		n, err := w.Write(vbuf[:k])
		offset += int64(n)
		return err
	}

	h.numL, h.finalID, h.level0, err = structuralScan(src, h.nOrig, &h.intr, &h.mem,
		func(ev trace.Event) error {
			binary.LittleEndian.PutUint64(off[:], uint64(offset))
			if _, err := iw.Write(off[:]); err != nil {
				return err
			}
			if err := writeUvarint(dw, uint64(len(ev.Sources))); err != nil {
				return err
			}
			for _, s := range ev.Sources {
				if err := writeUvarint(dw, uint64(s)); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := dw.Flush(); err != nil {
		return nil, err
	}
	if err := iw.Flush(); err != nil {
		return nil, err
	}
	return mapSpill(data, index)
}

// markReachable is the hybrid checker's phase-2 backward sweep, shared with
// the parallel checker. Roots are the final conflicting clause and every
// level-0 antecedent; each marked clause's sources (fetched via readSources,
// 0-based learned index) are marked in turn. Because sources strictly
// precede their clause, a single descending-ID sweep reaches the full
// closure. It returns the bitmap over learned clauses, the use count of each
// marked clause (indexed by learned index, 0 for unmarked), the number of
// marked clauses, and the bitmap of original clauses reachable from the
// roots — the unsatisfiable core the build pass can only re-touch, never
// extend. Counts and the core live in flat arrays sized by the known clause
// ranges, not maps: the sweep is allocation-free after setup, which matters
// because this pass runs on every check regardless of strategy.
func markReachable(nOrig, numL, finalID int, level0 []trace.Level0Record,
	readSources func(i int) ([]int, error), mem *memModel, intr *poller,
) (marked []uint64, counts []int32, numMarked int, usedOrig []uint64, err error) {
	marked = make([]uint64, (numL+63)/64)
	counts = make([]int32, numL)
	usedOrig = make([]uint64, (nOrig+63)/64)
	if err := mem.add(int64(len(marked)) * 2); err != nil { // 64-bit words = 2 model words
		return nil, nil, 0, nil, err
	}

	root := func(id int) error {
		if id < 0 || id >= nOrig+numL {
			return failf(FailBadSourceRef, id, -1, "root clause out of range")
		}
		if id < nOrig {
			usedOrig[id/64] |= 1 << uint(id%64)
			return nil
		}
		i := id - nOrig
		w, b := i/64, uint(i%64)
		if marked[w]&(1<<b) == 0 {
			marked[w] |= 1 << b
			numMarked++
			if err := mem.add(2); err != nil { // new use-count entry
				return err
			}
		}
		counts[i]++
		return nil
	}
	if err := root(finalID); err != nil {
		return nil, nil, 0, nil, err
	}
	for _, rec := range level0 {
		if err := root(rec.Ante); err != nil {
			return nil, nil, 0, nil, err
		}
	}

	for i := numL - 1; i >= 0; i-- {
		if err := intr.poll(); err != nil {
			return nil, nil, 0, nil, err
		}
		if marked[i/64]&(1<<uint(i%64)) == 0 {
			continue
		}
		srcs, err := readSources(i)
		if err != nil {
			return nil, nil, 0, nil, &CheckError{Kind: FailTrace, ClauseID: nOrig + i, Step: -1, Err: err}
		}
		for _, s := range srcs {
			if err := root(s); err != nil {
				return nil, nil, 0, nil, err
			}
		}
	}
	return marked, counts, numMarked, usedOrig, nil
}

// markPhase is phase 2: the shared backward sweep over the on-disk spill.
func (h *hybridChecker) markPhase(spill *sourcesSpill) error {
	var err error
	h.marked, h.counts, _, h.usedOrig, err = markReachable(
		h.nOrig, h.numL, h.finalID, h.level0, spill.sources, &h.mem, &h.intr)
	return err
}

// buildPass is phase 3: breadth-first construction restricted to marked
// clauses, followed by the final empty-clause derivation.
func (h *hybridChecker) buildPass(src trace.Source) error {
	h.live = make(map[int]*liveClause)
	l0 := newLevel0Table(h.numVars)
	for _, rec := range h.level0 {
		if err := l0.add(rec.Var, rec.Value, rec.Ante); err != nil {
			return err
		}
	}
	h.res.LearnedTotal = h.numL

	r := newResolver(h.originals)
	var chain []cnf.Clause
	err := h.scan(src, func(ev trace.Event) error {
		if ev.Kind != trace.KindLearned || !h.isMarked(ev.ID) {
			return nil
		}
		// A failed chain must still release its claim on the source
		// use-counts: the counting pass assumed this clause would consume
		// them, and leaving them live would leak clauses past the eviction
		// accounting (and, in the parallel checker built on the same
		// discipline, keep real memory alive for the rest of the run).
		cur, err := buildChain(r, &chain, ev.ID, ev.Sources, h.getClause)
		if err != nil {
			h.releaseSources(ev.Sources)
			return err
		}
		for _, s := range ev.Sources {
			h.consume(s)
		}
		h.res.ResolutionSteps += int64(len(ev.Sources) - 1)
		h.res.ClausesBuilt++
		// Copy out of the resolver's storage: the stored clause must own
		// its literals.
		h.live[ev.ID] = &liveClause{lits: cur.Clone(), remaining: h.counts[ev.ID-h.nOrig]}
		return h.mem.add(int64(len(cur)))
	})
	if err != nil {
		return err
	}

	final, err := h.getClause(h.finalID)
	if err != nil {
		return &CheckError{Kind: FailBadSourceRef, ClauseID: h.finalID, Step: -1,
			Detail: "final conflicting clause", Err: err}
	}
	// No copies: stored clause storage is immutable and survives eviction
	// (consume is memory-model accounting), exactly as in the depth-first
	// checker's final stage.
	h.consume(h.finalID)
	getAnte := func(id int) (cnf.Clause, error) {
		cl, err := h.getClause(id)
		if err != nil {
			return nil, err
		}
		h.consume(id)
		return cl, nil
	}
	return finalStage(final, h.finalID, l0, getAnte, func() { h.res.ResolutionSteps++ })
}

func (h *hybridChecker) getClause(id int) (cnf.Clause, error) {
	if id < 0 {
		return nil, fmt.Errorf("negative clause ID %d", id)
	}
	if id < h.nOrig {
		h.usedOrig[id/64] |= 1 << uint(id%64)
		return h.originals[id], nil
	}
	lc, ok := h.live[id]
	if !ok {
		return nil, fmt.Errorf("learned clause %d is not live (unmarked, consumed, or forward reference)", id)
	}
	return lc.lits, nil
}

func (h *hybridChecker) consume(id int) {
	if id < h.nOrig {
		return
	}
	lc, ok := h.live[id]
	if !ok {
		return
	}
	lc.remaining--
	if lc.remaining <= 0 {
		h.mem.sub(int64(len(lc.lits)))
		delete(h.live, id)
	}
}

// releaseSources consumes every source of a chain that failed mid-way, so
// the use counts stay balanced and no clause outlives its eviction point on
// an error path.
func (h *hybridChecker) releaseSources(sources []int) {
	for _, s := range sources {
		h.consume(s)
	}
}

func (h *hybridChecker) core(f *cnf.Formula) ([]int, int) {
	return coreFromUsed(f, h.usedOrig)
}

// coreFromUsed turns the bitmap of proof-touched original clause IDs into
// the sorted core list plus its distinct-variable count (Table 3's per-proof
// columns); shared by the hybrid and parallel checkers. Walking the bitmap
// in order yields the IDs already sorted.
func coreFromUsed(f *cnf.Formula, usedOrig []uint64) ([]int, int) {
	n := 0
	for _, w := range usedOrig {
		n += bits.OnesCount64(w)
	}
	ids := make([]int, 0, n)
	seenVar := make([]bool, f.NumVars+1)
	vars := 0
	for w, word := range usedOrig {
		for ; word != 0; word &= word - 1 {
			id := w*64 + bits.TrailingZeros64(word)
			ids = append(ids, id)
			for _, l := range f.Clauses[id] {
				if v := l.Var(); !seenVar[v] {
					seenVar[v] = true
					vars++
				}
			}
		}
	}
	return ids, vars
}

func (h *hybridChecker) scan(src trace.Source, fn func(trace.Event) error) error {
	return scanTrace(src, &h.intr, fn)
}

// scanTrace runs fn over one full pass of the trace, polling the interrupt
// hook between records; shared by all checkers.
func scanTrace(src trace.Source, intr *poller, fn func(trace.Event) error) error {
	r, err := src.Open()
	if err != nil {
		return fmt.Errorf("checker: opening trace: %w", err)
	}
	for {
		if err := intr.poll(); err != nil {
			return err
		}
		ev, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return &CheckError{Kind: FailTrace, ClauseID: trace.NoClause, Step: -1, Err: err}
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}
