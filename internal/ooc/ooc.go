// Package ooc checks proofs out of core: instead of holding the whole
// clause database in memory, it partitions the proof into sequential
// windows sized to a byte budget and runs the trusted kernel
// (internal/kernel) once per window over a bounded working set — Chen's
// window-shifting idea applied to hint-following LRAT checking. Learned
// clauses that later windows reference are spilled to a checksummed disk
// index when their window retires and re-imported on demand, so peak
// memory is governed by Options.MemBudgetBytes rather than proof size.
//
// Soundness is inherited, not re-implemented: every window is verified by
// the same kernel the in-memory path uses, over a window-local formula
// built so the kernel's verdict on the window equals the in-memory
// verdict on those lines:
//
//   - live clauses the window references are imported verbatim (originals
//     from the formula, learned clauses from the spill index);
//   - references to dead or unknown clauses become tombstones — empty
//     clauses deleted before the window runs — so bad hints and deletions
//     fail with exactly the in-memory diagnostics;
//   - a poison clause containing every negated pivot of the window's
//     additions is kept live, so a lemma that falls through RUP into a RAT
//     check can never be vacuously accepted against the partial database:
//     the poison clause is an uncoverable candidate and the kernel reports
//     ErrMissingCandidates, which this package rewrites into a fail-closed
//     rejection. Out-of-core checking is therefore RUP-only: it accepts a
//     strict subset of what the kernel accepts and rejects everything the
//     kernel rejects.
//
// An accepted proof reports the same statistics and the same unsat core as
// the unconstrained kernel (the core is recomputed by an identical
// backward hint-closure pass over the windows).
package ooc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/kernel"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// DefaultMemBudgetBytes is the window-planning budget when
// Options.MemBudgetBytes is zero.
const DefaultMemBudgetBytes = 256 << 20

// minWindowWords floors the per-window parse budget so progress is always
// possible: a budget too small for even one line still advances one line
// per window (and the resident-state check has already rejected budgets
// the metadata alone cannot fit).
const minWindowWords = 1 << 12

const noStep = -1

// Clause liveness, tracked globally across windows by clause ID.
const (
	stNone uint8 = iota // never added (or beyond the proof's ID space)
	stLive
	stDead
)

// window is one contiguous run of proof lines, re-parsed from the mapped
// proof bytes each time it is needed.
type window struct {
	start int64 // byte offset of the first line
	ops   int
}

// CheckLRAT verifies an LRAT proof of f out of core. File-backed sources
// are mmap'd; everything else is spooled to a temp file first (the window
// passes need random access).
func CheckLRAT(f *cnf.Formula, src drat.Source, opts checker.Options) (*checker.Result, error) {
	data, cleanup, err := openProof(src, opts.TempDir)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	defer cleanup()
	return checkData(f, data, opts)
}

// CheckDRAT verifies a DRUP/DRAT proof out of core: the untrusted forward
// annotator converts it to hinted LRAT in memory (annotation is not the
// trusted or memory-bounded part), the hinted proof is written to a temp
// file, and the windowed kernel verifies that file under the budget.
func CheckDRAT(f *cnf.Formula, src drat.Source, opts checker.Options) (*checker.Result, error) {
	proof, err := drat.Load(src)
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	_, lines, err := drat.AnnotateForward(f, proof, opts)
	if err != nil {
		return nil, err
	}
	return CheckLines(f, lines, opts)
}

// CheckTrace verifies a native solver trace out of core: the trace's
// derived clauses, hinted with their own resolve sources
// (tracecheck.Derive, copied into LRAT lines in memory), are verified by
// the windowed kernel under the budget. A trace Derive refuses is a
// FailTrace rejection, as in every native checker.
func CheckTrace(f *cnf.Formula, src trace.Source, opts checker.Options) (*checker.Result, error) {
	var lines []drat.LRATLine
	err := tracecheck.Derive(f, src, func(c tracecheck.Clause) error {
		lines = append(lines, drat.LRATLine{ID: c.ID, Lits: slices.Clone(c.Lits), Hints: slices.Clone(c.Hints)})
		return nil
	})
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: trace.NoClause, Step: noStep, Err: err}
	}
	return CheckLines(f, lines, opts)
}

// CheckLines verifies already-annotated LRAT lines out of core by
// round-tripping them through a spooled temp file (the windowed checker
// wants a flat byte view it can re-scan, and the spool is reclaimed
// before checking starts).
func CheckLines(f *cnf.Formula, lines []drat.LRATLine, opts checker.Options) (*checker.Result, error) {
	tmp, err := os.CreateTemp(opts.TempDir, "ooc-lrat-*")
	if err != nil {
		return nil, err
	}
	name := tmp.Name()
	defer os.Remove(name)
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err := drat.WriteLines(bw, lines); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	return CheckLRAT(f, drat.FileSource(name), opts)
}

func checkData(f *cnf.Formula, data []byte, opts checker.Options) (*checker.Result, error) {
	budget := opts.MemBudgetBytes
	if budget <= 0 {
		budget = DefaultMemBudgetBytes
	}
	r := &run{f: f, opts: opts, data: data, budgetWords: budget / 4}
	defer func() {
		if r.spill != nil {
			r.spill.Close()
		}
	}()
	return r.check()
}

// run is the state of one out-of-core check.
type run struct {
	f    *cnf.Formula
	opts checker.Options
	data []byte

	// Flattened, normalized original formula (kernelcheck.flatten's form).
	fLits   []int32
	fOff    []int32
	nOrig   int32
	fMaxVar int // widest formula variable, pre-31-bit-guard
	numVars int32

	budgetWords int64
	capWords    int64

	// Plan (pass A).
	windows  []window
	nAdds    int
	maxAddID int32
	pMaxVar  int32
	idSpace  int32

	// Global clause state across windows, indexed by clause ID.
	lastRef  []int32 // last window index referencing the ID, -1 if none
	status   []uint8
	spillRef []int64 // spill ref + 1; 0 = not spilled

	residentWords int64
	peakWords     int64

	spill *spillIndex
	ck    kernel.Checker
	kf    kernel.Formula
	kp    kernel.Proof

	// Scratch, reused across windows.
	buf     kernel.Proof
	scratch kernel.Proof
	refs    []int32
	spl     []int32

	// Current-window translation state (local kernel IDs → global IDs).
	curImports  []int32
	curTombs    []int32
	curWinAdds  []int32
	curDelLines []int32
	curPoison   []int32
	curNImp     int32
	curNTomb    int32
	curLocal    int32 // local original count (imports + tombs + poison)
	curDelBase  int32

	statBuilt   int
	statSteps   int64
	statWindows int
}

func (r *run) check() (*checker.Result, error) {
	r.flattenFormula()
	if err := r.validate(); err != nil {
		return nil, err
	}
	if err := r.budgetPlan(); err != nil {
		return nil, err
	}
	if err := r.planWindows(); err != nil {
		return nil, err
	}
	return r.checkWindows()
}

// flattenFormula mirrors the kernel bridge: original clauses normalized
// (sorted, duplicate-free), literals in the kernel's encoding.
func (r *run) flattenFormula() {
	maxVar := r.f.NumVars
	var norm cnf.Clause
	r.fOff = append(r.fOff[:0], 0)
	r.fLits = r.fLits[:0]
	for _, c := range r.f.Clauses {
		norm = append(norm[:0], c...)
		w, _ := norm.Normalize()
		for _, l := range w {
			if int(l.Var()) > maxVar {
				maxVar = int(l.Var())
			}
			r.fLits = append(r.fLits, int32(l))
		}
		r.fOff = append(r.fOff, int32(len(r.fLits)))
	}
	r.nOrig = int32(len(r.f.Clauses))
	r.fMaxVar = maxVar
}

func (r *run) poll() error {
	if r.opts.Interrupt == nil {
		return nil
	}
	return r.opts.Interrupt()
}

// resetOps empties b's slabs for the next line or window. The counters
// ScanOp keeps (NumAdds, MaxVar) run on, so after validate's pass they
// cover the whole proof.
func resetOps(b *kernel.Proof) {
	b.Ops = b.Ops[:0]
	b.Lits = b.Lits[:0]
	b.Hints = b.Hints[:0]
	b.Dels = b.Dels[:0]
}

// opWords is the flat parse size of b's ops in 4-byte words, including a
// fixed per-op overhead for the op records and ID maps.
func opWords(b *kernel.Proof) int64 {
	return int64(len(b.Lits)) + int64(len(b.Hints)) + int64(len(b.Dels)) + opOverheadWords*int64(len(b.Ops))
}

// opOverheadWords approximates the per-line bookkeeping (the parsed op, its
// window-local kernel.Op, ID maps) in the deterministic memory model.
const opOverheadWords = 16

func parseReject(err error) error {
	return &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
}

// validate is pass A part 1: a full streaming parse that rejects malformed
// proofs up front (the in-memory path parses before checking, so a syntax
// error anywhere in the file rejects the proof there too, ahead of any
// 31-bit range error) and gathers the sizes the budget arithmetic needs.
func (r *run) validate() error {
	s := kernelcheck.NewScanner(r.data, 0)
	maxAddID := r.nOrig
	n := 0
	for {
		resetOps(&r.scratch)
		err := s.ScanOp(&r.scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return parseReject(err)
		}
		if n++; n%4096 == 0 {
			if err := r.poll(); err != nil {
				return err
			}
		}
		if op := &r.scratch.Ops[0]; !op.Del && op.ID > maxAddID {
			maxAddID = op.ID
		}
	}
	if err := s.RangeErr(); err != nil {
		return err
	}
	r.maxAddID = maxAddID
	r.nAdds, r.pMaxVar = r.scratch.NumAdds, r.scratch.MaxVar
	if r.fMaxVar > (math.MaxInt32-2)/2 || int(r.pMaxVar) > (math.MaxInt32-2)/2 {
		return &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep,
			Detail: "variable range exceeds the kernel's 31-bit literal space"}
	}
	r.numVars = int32(r.fMaxVar)
	if r.pMaxVar > r.numVars {
		r.numVars = r.pMaxVar
	}
	return nil
}

// budgetPlan turns the byte budget into a window word cap. Resident state —
// per-ID metadata, the flattened formula, and the kernel's variable-indexed
// arrays — must fit the budget outright; what remains is split so one
// window's parse buffers, imports, and kernel copy (plus slack for the
// kernel's dense index) stay inside it.
func (r *run) budgetPlan() error {
	idSpace := int64(r.nOrig) + 1
	if int64(r.maxAddID)+1 > idSpace {
		idSpace = int64(r.maxAddID) + 1
	}
	metaWords := idSpace + // lastRef (int32)
		2*idSpace + // spillRef (int64)
		(idSpace+3)/4 + // status (uint8)
		(idSpace+31)/32 // core mark bitset
	formulaWords := int64(len(r.fLits) + len(r.fOff))
	fixedWords := 8 * (int64(r.numVars) + 2) // kernel val/trail/occ heads
	r.residentWords = metaWords + formulaWords + fixedWords
	if r.residentWords > r.budgetWords {
		return &checker.CheckError{Kind: checker.FailMemoryLimit, ClauseID: -1, Step: noStep,
			Detail: fmt.Sprintf("out-of-core resident state needs %d words, over the %d-word budget (raise -mem-budget)",
				r.residentWords, r.budgetWords)}
	}
	// A window's footprint is its parse buffers plus its imports plus the
	// kernel's copy of both; divide the headroom by six so the hard
	// per-window ceiling below has slack to spare.
	r.capWords = (r.budgetWords - r.residentWords) / 6
	if r.capWords < minWindowWords {
		r.capWords = minWindowWords
	}
	r.idSpace = int32(idSpace)
	r.lastRef = make([]int32, idSpace)
	for i := range r.lastRef {
		r.lastRef[i] = -1
	}
	r.status = make([]uint8, idSpace)
	for id := int32(1); id <= r.nOrig; id++ {
		r.status[id] = stLive
	}
	r.spillRef = make([]int64, idSpace)
	return nil
}

// planWindows is pass A part 2: a second streaming scan that cuts the
// proof into windows at the word cap and records, per clause ID, the last
// window that references it (hint or deletion) — the spill criterion.
func (r *run) planWindows() error {
	s := kernelcheck.NewScanner(r.data, 0)
	var w window
	var words int64
	n := 0
	for {
		off := s.Offset()
		resetOps(&r.scratch)
		err := s.ScanOp(&r.scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return parseReject(err)
		}
		if n++; n%4096 == 0 {
			if err := r.poll(); err != nil {
				return err
			}
		}
		opW := opWords(&r.scratch)
		if w.ops > 0 && words+opW > r.capWords {
			r.windows = append(r.windows, w)
			w = window{start: off}
			words = 0
		}
		w.ops++
		words += opW
		wi := int32(len(r.windows))
		op := &r.scratch.Ops[0]
		if op.Del {
			for _, d := range r.scratch.Dels {
				if d < r.idSpace {
					r.lastRef[d] = wi
				}
			}
			continue
		}
		for _, h := range r.scratch.Hints {
			if h < 0 {
				h = -h
			}
			if h < r.idSpace {
				r.lastRef[h] = wi
			}
		}
	}
	if w.ops > 0 {
		r.windows = append(r.windows, w)
	}
	return nil
}

func (r *run) checkWindows() (*checker.Result, error) {
	sp, err := newSpillIndex(r.opts.TempDir)
	if err != nil {
		return nil, err
	}
	r.spill = sp
	lastID := r.nOrig
	for wi := range r.windows {
		res, done, err := r.checkWindow(wi, &lastID)
		if err != nil {
			return nil, err
		}
		if done {
			return res, nil
		}
	}
	return nil, &checker.CheckError{Kind: checker.FailNotEmpty, ClauseID: -1, Step: noStep,
		Detail: "LRAT proof ends without deriving the empty clause"}
}

// parseWindow re-reads window wi's lines from the mapped proof into r.buf.
func (r *run) parseWindow(wi int) error {
	w := r.windows[wi]
	resetOps(&r.buf)
	s := kernelcheck.NewScanner(r.data, w.start)
	for i := 0; i < w.ops; i++ {
		if err := s.ScanOp(&r.buf); err != nil {
			return fmt.Errorf("ooc: internal: window %d re-parse diverged: %w", wi, err)
		}
	}
	return nil
}

func (r *run) checkWindow(wi int, lastID *int32) (*checker.Result, bool, error) {
	if err := r.poll(); err != nil {
		return nil, false, err
	}
	if err := r.parseWindow(wi); err != nil {
		return nil, false, err
	}
	ops := r.buf.Ops

	// The global ID-order invariant is checked here, against the last add
	// of the previous windows; lines from the first violation on are
	// withheld from the kernel so the violating line is reported only if
	// no earlier line fails (and is unreachable if an earlier line derives
	// the empty clause) — exactly the in-memory scan order.
	stop := len(ops)
	var stopErr error
	prev := *lastID
	for i := range ops {
		op := &ops[i]
		if op.Del {
			continue
		}
		if op.ID <= prev {
			stop = i
			stopErr = &checker.CheckError{Kind: checker.FailTrace, ClauseID: int(op.ID), Step: noStep,
				Detail: fmt.Sprintf("clause IDs must increase (previous %d)", prev)}
			break
		}
		prev = op.ID
	}

	// Collect the window's referenced IDs (hints, RAT candidates, deletion
	// targets) and its own additions.
	r.refs = r.refs[:0]
	r.curWinAdds = r.curWinAdds[:0]
	r.curPoison = r.curPoison[:0]
	for i := 0; i < stop; i++ {
		op := &ops[i]
		if op.Del {
			r.refs = append(r.refs, r.buf.Dels[op.DelOff:op.DelOff+op.DelN]...)
			continue
		}
		r.curWinAdds = append(r.curWinAdds, op.ID)
		if op.LitN > 0 {
			r.curPoison = append(r.curPoison, r.buf.Lits[op.LitOff]^1)
		}
		for _, h := range r.buf.Hints[op.HintOff : op.HintOff+op.HintN] {
			if h < 0 {
				h = -h
			}
			r.refs = append(r.refs, h)
		}
	}
	slices.Sort(r.refs)
	r.refs = slices.Compact(r.refs)
	slices.Sort(r.curPoison)
	r.curPoison = slices.Compact(r.curPoison)

	// Split references into live imports and tombstones.
	r.curImports = r.curImports[:0]
	r.curTombs = r.curTombs[:0]
	for _, ref := range r.refs {
		if _, own := slices.BinarySearch(r.curWinAdds, ref); own {
			continue
		}
		if ref < r.idSpace && r.status[ref] == stLive {
			r.curImports = append(r.curImports, ref)
		} else {
			r.curTombs = append(r.curTombs, ref)
		}
	}

	// Window-local formula: imports, then tombstones, then the poison
	// clause, numbered 1..curLocal.
	kf := &r.kf
	kf.Lits = kf.Lits[:0]
	kf.Off = append(kf.Off[:0], 0)
	for _, id := range r.curImports {
		if id <= r.nOrig {
			kf.Lits = append(kf.Lits, r.fLits[r.fOff[id-1]:r.fOff[id]]...)
		} else {
			ref := r.spillRef[id]
			if ref == 0 {
				return nil, false, fmt.Errorf("ooc: internal: clause %d live but never spilled", id)
			}
			lits, err := r.spill.get(ref-1, id, r.spl)
			if err != nil {
				return nil, false, spillReject(err)
			}
			r.spl = lits
			kf.Lits = append(kf.Lits, lits...)
		}
		kf.Off = append(kf.Off, int32(len(kf.Lits)))
	}
	for range r.curTombs {
		kf.Off = append(kf.Off, int32(len(kf.Lits)))
	}
	kf.Lits = append(kf.Lits, r.curPoison...)
	kf.Off = append(kf.Off, int32(len(kf.Lits)))
	kf.NumVars = r.numVars
	r.curNImp = int32(len(r.curImports))
	r.curNTomb = int32(len(r.curTombs))
	r.curLocal = r.curNImp + r.curNTomb + 1
	r.curDelBase = r.curLocal + int32(len(r.curWinAdds)) + 1

	// Window-local proof: delete the tombstones first (so stale references
	// hit "not live"/"unknown clause" exactly as in memory), then the
	// window's lines with IDs and references renumbered into local space.
	kp := &r.kp
	kp.Ops = kp.Ops[:0]
	kp.Lits = kp.Lits[:0]
	kp.Hints = kp.Hints[:0]
	kp.Dels = kp.Dels[:0]
	kp.NumAdds = 0
	kp.MaxVar = r.numVars
	r.curDelLines = r.curDelLines[:0]
	if r.curNTomb > 0 {
		op := kernel.Op{ID: r.curDelBase, Del: true, DelOff: 0, DelN: r.curNTomb}
		for j := int32(0); j < r.curNTomb; j++ {
			kp.Dels = append(kp.Dels, r.curNImp+1+j)
		}
		kp.Ops = append(kp.Ops, op)
		r.curDelLines = append(r.curDelLines, -1)
	}
	na := int32(0)
	for i := 0; i < stop; i++ {
		op := &ops[i]
		if op.Del {
			kop := kernel.Op{ID: r.curDelBase + int32(len(r.curDelLines)), Del: true, DelOff: int32(len(kp.Dels))}
			for _, d := range r.buf.Dels[op.DelOff : op.DelOff+op.DelN] {
				kp.Dels = append(kp.Dels, r.mapRef(d))
			}
			kop.DelN = int32(len(kp.Dels)) - kop.DelOff
			kp.Ops = append(kp.Ops, kop)
			r.curDelLines = append(r.curDelLines, op.ID)
			continue
		}
		kop := kernel.Op{ID: r.curLocal + 1 + na, LitOff: int32(len(kp.Lits)), HintOff: int32(len(kp.Hints))}
		kp.Lits = append(kp.Lits, r.buf.Lits[op.LitOff:op.LitOff+op.LitN]...)
		for _, h := range r.buf.Hints[op.HintOff : op.HintOff+op.HintN] {
			neg := h < 0
			if neg {
				h = -h
			}
			m := r.mapRef(h)
			if neg {
				m = -m
			}
			kp.Hints = append(kp.Hints, m)
		}
		kop.LitN = int32(len(kp.Lits)) - kop.LitOff
		kop.HintN = int32(len(kp.Hints)) - kop.HintOff
		kp.Ops = append(kp.Ops, kop)
		kp.NumAdds++
		na++
	}

	kres, kerr := r.ck.Check(kf, kp, kernel.Options{Interrupt: r.opts.Interrupt})
	r.statSteps += r.ck.Steps()
	r.statWindows++

	winWords := opWords(&r.buf) + int64(len(kf.Lits)) + 2*int64(len(kf.Off)) + r.ck.PeakMemWords()
	if total := r.residentWords + winWords; total > r.peakWords {
		r.peakWords = total
	}
	// The budget is a hard ceiling on the deterministic model, not just a
	// planning target: a window that outgrows it (oversized single line,
	// import-heavy hint pattern) aborts instead of quietly overshooting, so
	// PeakMemWords <= PeakMemBoundWords holds unconditionally.
	if r.peakWords > r.budgetWords {
		return nil, false, &checker.CheckError{Kind: checker.FailMemoryLimit, ClauseID: -1, Step: noStep,
			Detail: fmt.Sprintf("out-of-core window needs %d words, over the %d-word budget (raise -mem-budget)",
				r.peakWords, r.budgetWords)}
	}
	if r.opts.MemLimitWords > 0 && r.peakWords > r.opts.MemLimitWords {
		return nil, false, &checker.CheckError{Kind: checker.FailMemoryLimit, ClauseID: -1, Step: noStep,
			Detail: fmt.Sprintf("out-of-core memory model exceeded %d words (at %d)", r.opts.MemLimitWords, r.peakWords)}
	}

	if kerr == nil {
		// The kernel verified an empty clause inside this window.
		r.statBuilt += kres.Built
		finalIdx := -1
		adds := 0
		for i := 0; i < stop; i++ {
			if !ops[i].Del {
				if adds++; adds == kres.Built {
					finalIdx = i
					break
				}
			}
		}
		if finalIdx < 0 {
			return nil, false, fmt.Errorf("ooc: internal: cannot locate final op in window %d", wi)
		}
		core, coreVars, err := r.markCore(wi, finalIdx)
		if err != nil {
			return nil, false, err
		}
		return &checker.Result{
			LearnedTotal:      r.nAdds,
			ClausesBuilt:      r.statBuilt,
			ResolutionSteps:   r.statSteps,
			PeakMemWords:      r.peakWords,
			PeakMemBoundWords: r.budgetWords,
			CoreClauses:       core,
			CoreVars:          coreVars,
			OOCWindows:        r.statWindows,
			SpilledClauses:    r.spill.clauses,
			SpilledBytes:      r.spill.bytes,
		}, true, nil
	}
	ke := &kernel.Error{}
	if !errors.As(kerr, &ke) {
		return nil, false, kerr // Options.Interrupt error, verbatim
	}
	if ke.Code != kernel.ErrNotEmpty {
		return nil, false, r.translate(ke)
	}
	// Window exhausted without an empty clause: every line the kernel saw
	// verified. Surface a deferred ordering error now, else retire the
	// window into global state and move on.
	if stopErr != nil {
		return nil, false, stopErr
	}
	r.statBuilt += kp.NumAdds
	if err := r.retire(wi, stop, lastID); err != nil {
		return nil, false, err
	}
	return nil, false, nil
}

// mapRef renumbers a global clause reference into the current window's
// local ID space. Every reference was classified above, so exactly one
// of the three searches hits.
func (r *run) mapRef(ref int32) int32 {
	if i, ok := slices.BinarySearch(r.curWinAdds, ref); ok {
		return r.curLocal + 1 + int32(i)
	}
	if i, ok := slices.BinarySearch(r.curImports, ref); ok {
		return 1 + int32(i)
	}
	i, _ := slices.BinarySearch(r.curTombs, ref)
	return r.curNImp + 1 + int32(i)
}

// localToGlobal inverts mapRef for error reporting (plus deletion-line and
// poison IDs, which have no global identity and map to -1).
func (r *run) localToGlobal(v int32) int32 {
	switch {
	case v <= 0:
		return v
	case v <= r.curNImp:
		return r.curImports[v-1]
	case v < r.curLocal:
		return r.curTombs[v-r.curNImp-1]
	case v == r.curLocal:
		return -1 // poison
	case v < r.curDelBase:
		return r.curWinAdds[v-r.curLocal-1]
	default:
		if j := v - r.curDelBase; int(j) < len(r.curDelLines) {
			return r.curDelLines[j]
		}
		return -1
	}
}

// translate rewrites a window-local kernel rejection into the global
// diagnostics of the in-memory path. ErrMissingCandidates is the one
// deliberate divergence: with the poison clause live it fires for every
// RAT lemma the RUP prefix does not already discharge, and is reported as
// the out-of-core fail-closed rejection rather than a candidate list that
// would name the poison clause.
func (r *run) translate(ke *kernel.Error) error {
	if ke.Code == kernel.ErrMissingCandidates {
		return &checker.CheckError{Kind: checker.FailHint, ClauseID: int(r.localToGlobal(ke.Line)), Step: noStep,
			Detail: "RAT lemma cannot be verified out of core (candidate enumeration needs the full clause database; rerun with the in-memory kernel)"}
	}
	g := *ke
	g.Line = r.localToGlobal(ke.Line)
	g.Ref = r.localToGlobal(ke.Ref)
	g.IDs = nil
	return kernelcheck.TranslateKernelError(&g)
}

func spillReject(err error) error {
	var ec *errSpillCorrupt
	if errors.As(err, &ec) {
		return &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Detail: ec.Error()}
	}
	return err
}

// retire folds a fully verified window into the global state: replay its
// additions and deletions onto the liveness map, then spill every addition
// that is still live and referenced by a later window.
func (r *run) retire(wi, stop int, lastID *int32) error {
	ops := r.buf.Ops
	for i := 0; i < stop; i++ {
		op := &ops[i]
		if op.Del {
			for _, d := range r.buf.Dels[op.DelOff : op.DelOff+op.DelN] {
				if d < r.idSpace {
					r.status[d] = stDead
				}
			}
			continue
		}
		r.status[op.ID] = stLive
		*lastID = op.ID
	}
	for i := 0; i < stop; i++ {
		op := &ops[i]
		if op.Del || r.status[op.ID] != stLive || r.lastRef[op.ID] <= int32(wi) {
			continue
		}
		ref, err := r.spill.put(op.ID, r.buf.Lits[op.LitOff:op.LitOff+op.LitN])
		if err != nil {
			return err
		}
		r.spillRef[op.ID] = ref + 1
	}
	return r.spill.seal()
}

// markCore recomputes the kernel's backward hint closure across windows:
// mark the final line's hints, then walk every earlier addition in reverse
// proof order, expanding marked additions into their hints. The surviving
// marked originals are the unsat core — identical, clause for clause, to
// kernel.Result.Core on the unwindowed proof, because both walks visit the
// same additions in the same order with the same expansion rule.
func (r *run) markCore(finalWin, finalIdx int) ([]int, int, error) {
	marked := make([]uint64, (int(r.idSpace)+63)/64)
	mark := func(id int32) {
		if id > 0 && id < r.idSpace {
			marked[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	isMarked := func(id int32) bool {
		return id > 0 && id < r.idSpace && marked[id>>6]&(1<<(uint(id)&63)) != 0
	}
	markHints := func(op *kernel.Op) {
		for _, h := range r.buf.Hints[op.HintOff : op.HintOff+op.HintN] {
			if h < 0 {
				h = -h
			}
			mark(h)
		}
	}
	walk := func(from int) {
		ops := r.buf.Ops
		for i := from; i >= 0; i-- {
			op := &ops[i]
			if op.Del || !isMarked(op.ID) {
				continue
			}
			markHints(op)
		}
	}
	// r.buf still holds the final window.
	markHints(&r.buf.Ops[finalIdx])
	walk(finalIdx - 1)
	for w := finalWin - 1; w >= 0; w-- {
		if err := r.poll(); err != nil {
			return nil, 0, err
		}
		if err := r.parseWindow(w); err != nil {
			return nil, 0, err
		}
		walk(len(r.buf.Ops) - 1)
	}
	core := make([]int, 0, 16)
	seen := make([]bool, r.numVars+1)
	vars := 0
	for id := int32(1); id <= r.nOrig; id++ {
		if !isMarked(id) {
			continue
		}
		core = append(core, int(id-1))
		for _, l := range r.fLits[r.fOff[id-1]:r.fOff[id]] {
			if v := l >> 1; !seen[v] {
				seen[v] = true
				vars++
			}
		}
	}
	return core, vars, nil
}
