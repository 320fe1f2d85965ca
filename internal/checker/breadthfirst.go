package checker

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/trace"
)

// BreadthFirst validates an UNSAT trace with the breadth-first strategy of
// §3.3: learned clauses are built in the order they were generated, so every
// resolve source is already available, and a first pass over the trace
// counts how many times each clause is used so it can be deleted from memory
// the moment its last use completes. The checker therefore "will never keep
// more clauses in the memory than the SAT solver did when producing the
// trace".
//
// With Options.CountsOnDisk the counting pass is broken into ranges of
// Options.CountRange clauses and the counts live in a temporary file,
// reproducing the paper's fallback for proofs where even one counter per
// learned clause does not fit in memory.
func BreadthFirst(f *cnf.Formula, src trace.Source, opts Options) (*Result, error) {
	b := &bfChecker{
		originals: normalizeOriginals(f),
		nOrig:     len(f.Clauses),
		numVars:   f.NumVars,
		res:       &Result{},
	}
	b.mem.limit = opts.MemLimitWords
	b.intr.fn = opts.Interrupt
	if err := b.mem.add(int64(f.NumLiterals())); err != nil {
		return nil, err
	}

	counts, err := b.countUses(src, opts)
	if err != nil {
		return nil, err
	}
	defer counts.close()

	if err := b.buildPass(src, counts); err != nil {
		return nil, err
	}
	b.res.PeakMemWords = b.mem.peak
	return b.res, nil
}

type bfChecker struct {
	originals []cnf.Clause
	nOrig     int
	numVars   int
	live      map[int]*liveClause
	l0        *level0Table
	r         *resolve.Resolver
	chain     []cnf.Clause // the clause being built's sources (buildChain)
	mem       memModel
	intr      poller
	res       *Result
}

type liveClause struct {
	lits      cnf.Clause
	remaining int32
}

// useCounts abstracts where the per-learned-clause use counters live:
// in memory, or streamed from a temp file during the build pass.
type useCounts interface {
	// next returns the use count of the next learned clause in ID order.
	next() (int32, error)
	// total returns the number of learned clauses counted.
	total() int
	close()
}

// countUses runs the counting pass(es). Every reference to a learned clause
// counts: as a resolve source of a later learned clause, as a level-0
// antecedent, and as the final conflicting clause.
func (b *bfChecker) countUses(src trace.Source, opts Options) (useCounts, error) {
	if !opts.CountsOnDisk {
		return b.countInMemory(src)
	}
	return b.countOnDisk(src, opts)
}

func (b *bfChecker) countInMemory(src trace.Source) (useCounts, error) {
	counts := []int32{}
	nextID := b.nOrig
	sawConflict := false
	err := b.scan(src, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindLearned:
			if ev.ID != nextID {
				return failf(FailTrace, ev.ID, -1, "expected learned clause ID %d", nextID)
			}
			if len(ev.Sources) == 0 {
				return failf(FailTrace, ev.ID, -1, "learned clause has no resolve sources")
			}
			nextID++
			counts = append(counts, 0)
			if err := b.mem.add(1); err != nil {
				return err
			}
			for _, s := range ev.Sources {
				if err := bumpCount(counts, b.nOrig, s, ev.ID); err != nil {
					return err
				}
			}
		case trace.KindLevelZero:
			if err := bumpCount(counts, b.nOrig, ev.Ante, nextID); err != nil {
				return err
			}
		case trace.KindFinalConflict:
			if sawConflict {
				return failf(FailTrace, ev.ID, -1, "multiple final-conflict records")
			}
			sawConflict = true
			if err := bumpCount(counts, b.nOrig, ev.ID, nextID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawConflict {
		return nil, failf(FailTrace, trace.NoClause, -1, "no final-conflict record; trace does not claim UNSAT")
	}
	return &memCounts{counts: counts}, nil
}

// bumpCount increments the counter for clause id if it is learned; original
// clauses stay resident and need no counting. limit is the first not-yet-
// declared learned ID, so forward references are rejected.
func bumpCount(counts []int32, nOrig, id, limit int) error {
	if id < 0 || id >= limit {
		return failf(FailBadSourceRef, id, -1, "reference to undeclared clause (IDs below %d exist)", limit)
	}
	if id >= nOrig {
		counts[id-nOrig]++
	}
	return nil
}

type memCounts struct {
	counts []int32
	pos    int
}

func (m *memCounts) next() (int32, error) {
	if m.pos >= len(m.counts) {
		return 0, io.ErrUnexpectedEOF
	}
	c := m.counts[m.pos]
	m.pos++
	return c, nil
}
func (m *memCounts) total() int { return len(m.counts) }
func (m *memCounts) close()     {}

// countOnDisk computes counts in ranges of opts.CountRange learned clauses
// per pass over the trace, appending each finished range to a temp file.
func (b *bfChecker) countOnDisk(src trace.Source, opts Options) (useCounts, error) {
	rng := opts.CountRange
	if rng <= 0 {
		rng = 1 << 20
	}

	// Structural pre-pass: establish the learned-clause count and validate
	// record ordering once.
	numLearned := 0
	sawConflict := false
	err := b.scan(src, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindLearned:
			if ev.ID != b.nOrig+numLearned {
				return failf(FailTrace, ev.ID, -1, "expected learned clause ID %d", b.nOrig+numLearned)
			}
			if len(ev.Sources) == 0 {
				return failf(FailTrace, ev.ID, -1, "learned clause has no resolve sources")
			}
			numLearned++
		case trace.KindFinalConflict:
			if sawConflict {
				return failf(FailTrace, ev.ID, -1, "multiple final-conflict records")
			}
			sawConflict = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawConflict {
		return nil, failf(FailTrace, trace.NoClause, -1, "no final-conflict record; trace does not claim UNSAT")
	}

	tmp, err := os.CreateTemp(opts.TempDir, "satcheck-bf-counts-*")
	if err != nil {
		return nil, fmt.Errorf("checker: creating counts spill file: %w", err)
	}
	// The file is unlinked on close; keep only the handle.
	os.Remove(tmp.Name())

	w := bufio.NewWriterSize(tmp, 1<<16)
	chunk := make([]int32, 0, rng)
	if err := b.mem.add(int64(rng)); err != nil {
		tmp.Close()
		return nil, err
	}
	for lo := 0; lo < numLearned || (lo == 0 && numLearned == 0); lo += rng {
		hi := lo + rng
		chunk = chunk[:0]
		for i := 0; i < rng && lo+i < numLearned; i++ {
			chunk = append(chunk, 0)
		}
		bump := func(id int) {
			i := id - b.nOrig - lo
			if i >= 0 && i < len(chunk) {
				chunk[i]++
			}
		}
		err := b.scan(src, func(ev trace.Event) error {
			switch ev.Kind {
			case trace.KindLearned:
				for _, s := range ev.Sources {
					if s < 0 || s >= ev.ID {
						return failf(FailBadSourceRef, s, -1, "learned clause %d references non-earlier clause", ev.ID)
					}
					bump(s)
				}
			case trace.KindLevelZero:
				if ev.Ante < 0 || ev.Ante >= b.nOrig+numLearned {
					return failf(FailBadSourceRef, ev.Ante, -1, "level-0 antecedent out of range")
				}
				bump(ev.Ante)
			case trace.KindFinalConflict:
				if ev.ID < 0 || ev.ID >= b.nOrig+numLearned {
					return failf(FailBadSourceRef, ev.ID, -1, "final conflicting clause out of range")
				}
				bump(ev.ID)
			}
			return nil
		})
		if err != nil {
			tmp.Close()
			return nil, err
		}
		for _, c := range chunk {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(c))
			if _, err := w.Write(buf[:]); err != nil {
				tmp.Close()
				return nil, fmt.Errorf("checker: writing counts spill: %w", err)
			}
		}
		if hi >= numLearned {
			break
		}
	}
	b.mem.sub(int64(rng))
	if err := w.Flush(); err != nil {
		tmp.Close()
		return nil, err
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		tmp.Close()
		return nil, err
	}
	return &fileCounts{f: tmp, r: bufio.NewReaderSize(tmp, 1<<16), n: numLearned}, nil
}

type fileCounts struct {
	f *os.File
	r *bufio.Reader
	n int
}

func (fc *fileCounts) next() (int32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(fc.r, buf[:]); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(buf[:])), nil
}
func (fc *fileCounts) total() int { return fc.n }
func (fc *fileCounts) close()     { fc.f.Close() }

// scan runs fn over one full pass of the trace.
func (b *bfChecker) scan(src trace.Source, fn func(trace.Event) error) error {
	return scanTrace(src, &b.intr, fn)
}

// buildPass is the second pass: construct every learned clause in trace
// order, evicting clauses whose uses are exhausted, then run the final
// empty-clause derivation.
func (b *bfChecker) buildPass(src trace.Source, counts useCounts) error {
	b.live = make(map[int]*liveClause)
	b.l0 = newLevel0Table(b.numVars)
	b.r = newResolver(b.originals)
	b.res.LearnedTotal = counts.total()
	finalID := trace.NoClause

	err := b.scan(src, func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindLearned:
			return b.buildLearned(ev.ID, ev.Sources, counts)
		case trace.KindLevelZero:
			if err := b.l0.add(ev.Var, ev.Value, ev.Ante); err != nil {
				return err
			}
			return b.mem.add(3)
		case trace.KindFinalConflict:
			finalID = ev.ID
		}
		return nil
	})
	if err != nil {
		return err
	}

	final, err := b.getClause(finalID)
	if err != nil {
		return &CheckError{Kind: FailBadSourceRef, ClauseID: finalID, Step: -1,
			Detail: "final conflicting clause", Err: err}
	}
	// No copies: stored clause storage is immutable and survives eviction
	// (consume is memory-model accounting), exactly as in the depth-first
	// checker's final stage.
	b.consume(finalID)
	getAnte := func(id int) (cnf.Clause, error) {
		cl, err := b.getClause(id)
		if err != nil {
			return nil, err
		}
		b.consume(id)
		return cl, nil
	}
	return finalStage(final, finalID, b.l0, getAnte, func() { b.res.ResolutionSteps++ })
}

// buildLearned rebuilds one learned clause by chaining its resolve sources
// and validating every step, then installs it if it will be used later.
func (b *bfChecker) buildLearned(id int, sources []int, counts useCounts) error {
	myCount, err := counts.next()
	if err != nil {
		return &CheckError{Kind: FailTrace, ClauseID: id, Step: -1,
			Detail: "counts stream out of sync", Err: err}
	}
	cur, err := buildChain(b.r, &b.chain, id, sources, b.getClause)
	if err != nil {
		b.releaseSources(sources)
		return err
	}
	// Consume the sources only after the whole chain validated; a chain
	// that failed mid-way released them above so the use counts stay
	// balanced either way.
	for _, s := range sources {
		b.consume(s)
	}
	b.res.ResolutionSteps += int64(len(sources) - 1)
	b.res.ClausesBuilt++
	if myCount > 0 {
		// Copy out of the resolver's storage: only clauses with a future
		// use pay for owned storage.
		b.live[id] = &liveClause{lits: cur.Clone(), remaining: myCount}
		return b.mem.add(int64(len(cur)))
	}
	return nil
}

// releaseSources consumes every source of a chain that failed mid-way, so a
// rejected proof cannot leak clauses past the eviction accounting.
func (b *bfChecker) releaseSources(sources []int) {
	for _, s := range sources {
		b.consume(s)
	}
}

// getClause fetches clause id: original clauses from the formula, learned
// clauses from the live set.
func (b *bfChecker) getClause(id int) (cnf.Clause, error) {
	if id < 0 {
		return nil, fmt.Errorf("negative clause ID %d", id)
	}
	if id < b.nOrig {
		return b.originals[id], nil
	}
	lc, ok := b.live[id]
	if !ok {
		return nil, fmt.Errorf("learned clause %d is not live (never built, already consumed, or forward reference)", id)
	}
	return lc.lits, nil
}

// consume registers one use of clause id, evicting it when its counted uses
// are exhausted — the breadth-first memory discipline.
func (b *bfChecker) consume(id int) {
	if id < b.nOrig {
		return
	}
	lc, ok := b.live[id]
	if !ok {
		return
	}
	lc.remaining--
	if lc.remaining <= 0 {
		b.mem.sub(int64(len(lc.lits)))
		delete(b.live, id)
	}
}
