package checker

import (
	"fmt"
	"sort"

	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/trace"
)

// DepthFirst validates an UNSAT trace with the depth-first strategy of
// §3.2 (Figure 3): the whole trace is loaded into memory, and learned
// clauses are built recursively, on demand, starting from the final
// conflicting clause. Only the clauses involved in the empty-clause
// derivation are ever constructed, and the original clauses touched along
// the way form an unsatisfiable core (Result.CoreClauses).
func DepthFirst(f *cnf.Formula, src trace.Source, opts Options) (*Result, error) {
	data, err := trace.Load(src)
	if err != nil {
		return nil, &CheckError{Kind: FailTrace, ClauseID: trace.NoClause, Step: -1, Err: err}
	}
	return depthFirstData(f, data, opts)
}

// depthFirstData is the core of DepthFirst, shared with callers that already
// hold a loaded trace (the unsat-core iteration loop).
func depthFirstData(f *cnf.Formula, data *trace.Data, opts Options) (*Result, error) {
	nOrig := len(f.Clauses)
	if data.FirstLearned != -1 && data.FirstLearned != nOrig {
		return nil, failf(FailTrace, data.FirstLearned, -1,
			"first learned clause ID %d does not follow the %d original clauses", data.FirstLearned, nOrig)
	}

	d := &dfChecker{
		originals: normalizeOriginals(f),
		data:      data,
		built:     make([]cnf.Clause, data.NumLearned()),
		usedOrig:  make([]bool, nOrig),
		res:       &Result{LearnedTotal: data.NumLearned()},
	}
	d.mem.limit = opts.MemLimitWords
	d.intr.fn = opts.Interrupt

	// The depth-first checker holds the entire trace in memory: account for
	// it (this is exactly what makes DF memory-hungry in Table 2).
	traceWords := int64(0)
	for _, srcs := range data.LearnedSources {
		traceWords += int64(len(srcs)) + 2
	}
	traceWords += 3 * int64(len(data.Level0))
	if err := d.mem.add(traceWords); err != nil {
		return nil, err
	}

	l0 := newLevel0Table(f.NumVars)
	for _, rec := range data.Level0 {
		if err := l0.add(rec.Var, rec.Value, rec.Ante); err != nil {
			return nil, err
		}
	}

	final, err := d.build(data.FinalConflict)
	if err != nil {
		return nil, err
	}
	if err := finalStage(final, data.FinalConflict, l0, d.build, func() { d.res.ResolutionSteps++ }); err != nil {
		return nil, err
	}

	d.res.PeakMemWords = d.mem.peak
	d.res.CoreClauses, d.res.CoreVars = d.core(f)
	return d.res, nil
}

type dfChecker struct {
	originals []cnf.Clause
	data      *trace.Data
	built     []cnf.Clause // by id - FirstLearned; nil = not built yet
	usedOrig  []bool
	mem       memModel
	intr      poller
	scratches [][2]cnf.Clause // recycled per-frame ping-pong resolution buffers
	res       *Result
}

// dfFrame is one in-progress recursive_build invocation on the explicit
// stack (proof graphs are deep; Go stacks are not the place for them).
type dfFrame struct {
	id   int
	next int // index of the next resolve source to fold in
	cur  cnf.Clause
	buf  [2]cnf.Clause // this frame's resolution scratch; frames interleave
}

// takeScratch hands a frame a (possibly warm) buffer pair; putScratch
// recycles it when the frame finishes, so a whole run allocates only as many
// scratch pairs as the deepest build chain.
func (d *dfChecker) takeScratch() [2]cnf.Clause {
	if n := len(d.scratches); n > 0 {
		s := d.scratches[n-1]
		d.scratches = d.scratches[:n-1]
		return s
	}
	return [2]cnf.Clause{}
}

func (d *dfChecker) putScratch(s [2]cnf.Clause) {
	d.scratches = append(d.scratches, s)
}

// build returns the clause with the given ID, constructing learned clauses
// by resolution on demand (recursive_build from Figure 3, made iterative).
func (d *dfChecker) build(id int) (cnf.Clause, error) {
	if cl, done, err := d.lookup(id); done {
		if err != nil {
			return nil, &CheckError{Kind: FailBadSourceRef, ClauseID: id, Step: -1, Err: err}
		}
		return cl, nil
	}
	stack := []dfFrame{{id: id, buf: d.takeScratch()}}
	for len(stack) > 0 {
		if err := d.intr.poll(); err != nil {
			return nil, err
		}
		fr := &stack[len(stack)-1]
		srcs := d.data.SourcesOf(fr.id)
		if fr.next >= len(srcs) {
			// All sources folded: the clause is built. Multi-source results
			// live in this frame's scratch and must be copied out; a
			// single-source alias may be stored as-is (built clauses are
			// immutable and never freed).
			cl := fr.cur
			if len(srcs) > 1 {
				cl = cl.Clone()
			}
			if err := d.finish(fr.id, cl); err != nil {
				return nil, err
			}
			d.putScratch(fr.buf)
			stack = stack[:len(stack)-1]
			continue
		}
		sid := srcs[fr.next]
		cl, done, err := d.lookup(sid)
		if err != nil {
			return nil, &CheckError{Kind: FailBadSourceRef, ClauseID: fr.id, Step: fr.next, Err: err}
		}
		if !done {
			stack = append(stack, dfFrame{id: sid, buf: d.takeScratch()})
			continue
		}
		if fr.next == 0 {
			fr.cur = cl
		} else {
			// Ping-pong between the frame's two buffers: dst never aliases
			// cur (the other buffer, or a stored clause on the first step).
			next, _, rerr := resolve.ResolventInto(fr.buf[fr.next%2], fr.cur, cl)
			if rerr != nil {
				return nil, &CheckError{Kind: FailResolution, ClauseID: fr.id, Step: fr.next,
					Detail: fmt.Sprintf("resolving with source %d", sid), Err: rerr}
			}
			fr.buf[fr.next%2] = next
			fr.cur = next
			d.res.ResolutionSteps++
		}
		fr.next++
	}
	cl, _, err := d.lookup(id)
	return cl, err
}

// lookup fetches a clause if it is available without building: an original
// clause, or a learned clause already built. done=false means the learned
// clause exists but has not been built yet.
func (d *dfChecker) lookup(id int) (cnf.Clause, bool, error) {
	if id < 0 {
		return nil, true, fmt.Errorf("negative clause ID %d", id)
	}
	if id < len(d.originals) {
		if !d.usedOrig[id] {
			d.usedOrig[id] = true
		}
		return d.originals[id], true, nil
	}
	i := id - len(d.originals)
	if i >= len(d.built) {
		return nil, true, fmt.Errorf("clause ID %d beyond trace (last learned %d)",
			id, len(d.originals)+len(d.built)-1)
	}
	if d.built[i] != nil {
		return d.built[i], true, nil
	}
	return nil, false, nil
}

// finish records a freshly built learned clause. Depth-first never frees:
// a built clause stays resident (that is the strategy's memory cost).
func (d *dfChecker) finish(id int, cl cnf.Clause) error {
	i := id - len(d.originals)
	if cl == nil {
		cl = cnf.Clause{} // an empty resolvent is a real (empty) clause
	}
	d.built[i] = cl
	d.res.ClausesBuilt++
	return d.mem.add(int64(len(cl)))
}

// core returns the sorted original clause IDs touched by the proof and the
// number of distinct variables they mention (Table 3's per-proof columns).
func (d *dfChecker) core(f *cnf.Formula) ([]int, int) {
	ids := make([]int, 0, 64)
	seenVar := make(map[cnf.Var]struct{})
	for id, used := range d.usedOrig {
		if !used {
			continue
		}
		ids = append(ids, id)
		for _, l := range f.Clauses[id] {
			seenVar[l.Var()] = struct{}{}
		}
	}
	sort.Ints(ids)
	return ids, len(seenVar)
}
